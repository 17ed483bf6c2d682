package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/topology"
)

// waitUntil advances clk one flaky-process step at a time until cond
// holds, and fails the test after a simulated second.
func waitUntil(t *testing.T, clk *clock.Fake, what string, cond func() bool) {
	t.Helper()
	for waited := time.Duration(0); !cond(); waited += grayStep {
		if waited >= time.Second {
			t.Fatalf("no %s within a second of the clock", what)
		}
		clk.Advance(grayStep)
	}
}

// TestGrayFaultVerbs drives the gray-failure surface end to end over
// HTTP: flaky injection starts the stepper and shows up with duty-cycle
// state in /faults, damping quarantines the flapping channel, degrade
// installs a slow-plane process, and the whole-plane repair verb clears
// every gray artifact at once. The router runs on a fake clock, which the
// test advances to step the flaky process.
func TestGrayFaultVerbs(t *testing.T) {
	clk := clock.NewFake()
	cfg := federation.Config{Clock: clk, Planes: []federation.PlaneConfig{{
		Fabric: fabric.Config{
			Tree:      topology.MustNew(2, 4, 4),
			BatchSize: 1,
			MaxWait:   200 * time.Microsecond,
			// First flap quarantines, and the running flaky process keeps
			// extending the quarantine until the repair verb below lifts it.
			FlapThreshold: 1,
		},
	}}}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(router)
	ts := httptest.NewServer(sv.routes())
	t.Cleanup(func() {
		ts.Close()
		sv.stopGray()
		router.Close(context.Background())
	})

	// Start one flaky process; at duty 0.5 it transitions within a few
	// steps, and the first down-transition quarantines the channel.
	var fr faultResponse
	code := postJSON(t, ts.URL+"/fault", faultRequest{Flaky: []faults.FlakyLink{{
		Link:      faults.LinkFault{Level: 0, Switch: 0, Port: 0, Direction: faults.Up},
		DutyCycle: 0.5,
		Seed:      7,
	}}}, &fr)
	if code != http.StatusOK || fr.Kind != "flaky" || fr.Flaky != 1 {
		t.Fatalf("flaky install: code %d, %+v", code, fr)
	}
	var fl faultsResponse
	waitUntil(t, clk, "flaky process state in /faults", func() bool {
		fl = faultsResponse{}
		getJSON(t, ts.URL+"/faults", &fl)
		return len(fl.Planes) == 1 && len(fl.Planes[0].Flaky) == 1 && fl.Planes[0].Flaky[0].Step > 0
	})
	if p := fl.Planes[0].Flaky[0]; p.DutyCycle != 0.5 || p.Seed != 7 {
		t.Fatalf("flaky status lost the process parameters: %+v", p)
	}
	waitUntil(t, clk, "quarantine", func() bool {
		fl = faultsResponse{}
		getJSON(t, ts.URL+"/faults", &fl)
		return len(fl.Planes[0].Quarantined) > 0
	})

	// The liveness probe reports the quarantine and the health fields.
	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" || hz.Planes[0].Quarantined == 0 {
		t.Fatalf("healthz did not see the quarantine: %+v", hz)
	}
	if hz.Planes[0].Breaker == "" || hz.Planes[0].Health <= 0 || hz.Planes[0].Health > 1 {
		t.Fatalf("healthz health fields: %+v", hz.Planes[0])
	}

	// Install a slow-plane process; /faults reports it.
	code = postJSON(t, ts.URL+"/fault", faultRequest{Degrade: &faults.DegradedPlane{
		AdmitLatency: faults.Duration(2 * time.Millisecond),
		DutyCycle:    0.5,
	}}, &fr)
	if code != http.StatusOK || fr.Kind != "degraded" {
		t.Fatalf("degrade install: code %d, %+v", code, fr)
	}
	fl = faultsResponse{}
	getJSON(t, ts.URL+"/faults", &fl)
	if fl.Planes[0].Degraded == nil || fl.Planes[0].Degraded.DutyCycle != 0.5 {
		t.Fatalf("/faults does not report the degraded process: %+v", fl.Planes[0])
	}

	// Whole-plane repair: stops the process, heals, lifts quarantine,
	// clears the degraded process, re-admits.
	code = postJSON(t, ts.URL+"/fault", faultRequest{Repair: true}, &fr)
	if code != http.StatusOK || fr.Kind != "plane-repair" || fr.Flaky != 1 {
		t.Fatalf("plane repair: code %d, %+v", code, fr)
	}
	fl = faultsResponse{}
	getJSON(t, ts.URL+"/faults", &fl)
	if len(fl.Planes[0].Flaky) != 0 || len(fl.Planes[0].Quarantined) != 0 || fl.Planes[0].Degraded != nil {
		t.Fatalf("plane repair left gray state: %+v", fl.Planes[0])
	}
	waitUntil(t, clk, "healthz ok after plane repair", func() bool {
		hz = healthzResponse{}
		getJSON(t, ts.URL+"/healthz", &hz)
		return hz.Status == "ok"
	})
}

// TestFaultKinds pins the response kind for every clean verb.
func TestFaultKinds(t *testing.T) {
	ts, _ := newTestServer(t, 1, 2, 4, 1)
	var fr faultResponse
	link := faults.LinkFault{Level: 0, Switch: 0, Port: 0}
	sw := faults.SwitchFault{Level: 1, Switch: 0}

	postJSON(t, ts.URL+"/fault", faultRequest{FaultSet: faults.FaultSet{Links: []faults.LinkFault{link}}}, &fr)
	if fr.Kind != "link" {
		t.Errorf("link injection kind %q", fr.Kind)
	}
	postJSON(t, ts.URL+"/fault", faultRequest{FaultSet: faults.FaultSet{Switches: []faults.SwitchFault{sw}}}, &fr)
	if fr.Kind != "switch" {
		t.Errorf("switch injection kind %q", fr.Kind)
	}
	postJSON(t, ts.URL+"/fault", faultRequest{FaultSet: faults.FaultSet{
		Links: []faults.LinkFault{{Level: 0, Switch: 1, Port: 0}}, Switches: []faults.SwitchFault{sw},
	}}, &fr)
	if fr.Kind != "mixed" {
		t.Errorf("mixed injection kind %q", fr.Kind)
	}
	postJSON(t, ts.URL+"/fault", faultRequest{Repair: true, FaultSet: faults.FaultSet{Links: []faults.LinkFault{link}}}, &fr)
	if fr.Kind != "repair" {
		t.Errorf("targeted repair kind %q", fr.Kind)
	}
	postJSON(t, ts.URL+"/fault", faultRequest{Repair: true}, &fr)
	if fr.Kind != "plane-repair" {
		t.Errorf("plane repair kind %q", fr.Kind)
	}
	postJSON(t, ts.URL+"/fault", faultRequest{Kill: true}, &fr)
	if fr.Kind != "kill" || !fr.Killed {
		t.Errorf("kill kind %q killed %v", fr.Kind, fr.Killed)
	}
	// Invalid gray bodies are rejected like invalid fault sets.
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Flaky: []faults.FlakyLink{{
		Link: faults.LinkFault{Level: 99}, DutyCycle: 0.5,
	}}}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid flaky link status %d", code)
	}
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Degrade: &faults.DegradedPlane{
		DutyCycle: 7,
	}}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid degrade status %d", code)
	}
}
