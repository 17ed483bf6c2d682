package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/topology"
)

// newTestRouter builds a federation of n identical planes, as ftserve's
// shape flags do.
func newTestRouter(t testing.TB, planes, levels, children, batch int, policy federation.Policy) *federation.Router {
	t.Helper()
	cfg := federation.Config{Policy: policy}
	for i := 0; i < planes; i++ {
		cfg.Planes = append(cfg.Planes, federation.PlaneConfig{
			Fabric: fabric.Config{
				Tree:      topology.MustNew(levels, children, children),
				BatchSize: batch,
				MaxWait:   200 * time.Microsecond,
			},
		})
	}
	r, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestServer(t *testing.T, planes, levels, children, batch int) (*httptest.Server, *federation.Router) {
	t.Helper()
	router := newTestRouter(t, planes, levels, children, batch, federation.PolicyRoundRobin)
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})
	return ts, router
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestConnectReleaseStats(t *testing.T) {
	ts, _ := newTestServer(t, 1, 3, 4, 4)

	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 33}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	if conn.ID == 0 || len(conn.Ports) == 0 || conn.Plane != "plane0" {
		t.Fatalf("connect response %+v", conn)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Open != 1 || st.Granted != 1 || st.Offered != 1 {
		t.Errorf("federated stats after connect: %+v", st.Stats)
	}
	if len(st.Planes) != 1 || st.Planes[0].Fabric.Active != 1 || st.Planes[0].Fabric.Utilization <= 0 {
		t.Errorf("plane stats after connect: %+v", st.Planes)
	}

	var rel releaseResponse
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, &rel); code != http.StatusOK || !rel.Released {
		t.Fatalf("release status %d resp %+v", code, rel)
	}
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); code != http.StatusNotFound {
		t.Errorf("double release status %d, want 404", code)
	}
}

func TestConnectUnroutable(t *testing.T) {
	ts, _ := newTestServer(t, 1, 2, 2, 1)

	// Saturate the two upward channels of level-0 switch 1 (nodes 2, 3).
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 2, Dst: 0}, nil); code != http.StatusOK {
			t.Fatalf("connect %d status %d", i, code)
		}
	}
	var er errorResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 2, Dst: 0}, &er); code != http.StatusConflict {
		t.Fatalf("saturated connect status %d, want 409", code)
	}
	if er.Error != "unroutable" || er.FailLevel == nil || *er.FailLevel != 0 || er.Cause != "contention" {
		t.Errorf("unroutable body %+v, want fail level 0 and cause contention", er)
	}

	// On a fresh plane, fail both uplinks of level-0 switch 0 (nodes 0, 1):
	// nothing is held, the failed links alone deny the pair.
	ts, _ = newTestServer(t, 1, 2, 2, 1)
	cut := faultRequest{FaultSet: faults.FaultSet{Links: []faults.LinkFault{
		{Level: 0, Switch: 0, Port: 0}, {Level: 0, Switch: 0, Port: 1},
	}}}
	if code := postJSON(t, ts.URL+"/fault", cut, nil); code != http.StatusOK {
		t.Fatalf("fault status %d", code)
	}
	er = errorResponse{}
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 1, Dst: 3}, &er); code != http.StatusConflict {
		t.Fatalf("fault-blocked connect status %d, want 409", code)
	}
	if er.Error != "unroutable" || er.FailLevel == nil || *er.FailLevel != 0 || er.Cause != "faults" {
		t.Errorf("unroutable body %+v, want fail level 0 and cause faults", er)
	}
}

// TestConnectFailsOverPlanes drains plane0 directly and checks the HTTP
// layer lands the admission on plane1, reporting which plane took it.
func TestConnectFailsOverPlanes(t *testing.T) {
	ts, router := newTestServer(t, 2, 2, 2, 1)

	// Round-robin starts on plane0; close it out-of-band. Its published
	// rows still say the pair routes, so the HTTP admission tries it, is
	// refused, and must fail over.
	surf, ok := router.Plane("plane0")
	if !ok {
		t.Fatal("plane0 missing")
	}
	if err := surf.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 2, Dst: 0}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	if conn.Plane != "plane1" {
		t.Errorf("connect landed on %q, want plane1", conn.Plane)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Failovers == 0 {
		t.Errorf("no failover counted: %+v", st.Stats)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 1, 2, 4, 1)

	resp, err := http.Post(ts.URL+"/connect", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: -1, Dst: 2}, nil); code != http.StatusBadRequest {
		t.Errorf("bad endpoints status %d", code)
	}
	resp, err = http.Get(ts.URL + "/connect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /connect status %d", resp.StatusCode)
	}
}

// TestCancelledConnectReleasesGrant: a /connect whose client has gone
// before the verdict still gets its grant (the plane finds the ticket
// claimed and honours the verdict). No client will learn that circuit's
// id, so it is released and the answer is 503, as for a cancellation the
// plane itself reports.
func TestCancelledConnectReleasesGrant(t *testing.T) {
	router := newTestRouter(t, 1, 2, 4, 1, federation.PolicyRoundRobin)
	defer router.Close(context.Background())
	h := newServer(router).routes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/connect", strings.NewReader(`{"src":0,"dst":15}`)).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d %s, want 503", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Open != 0 || st.Planes[0].Fabric.Active != 0 {
		t.Errorf("a cancelled connect left open %d, active %d; want 0 and 0", st.Open, st.Planes[0].Fabric.Active)
	}
	if err := router.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestConcurrentHTTPClients(t *testing.T) {
	ts, router := newTestServer(t, 2, 3, 8, 16)

	const clients = 32
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(id int) {
			for i := 0; i < 5; i++ {
				var conn connectResponse
				code := postJSON0(ts.URL+"/connect", connectRequest{Src: (id*7 + i) % 512, Dst: (id*13 + 3*i) % 512}, &conn)
				if code == http.StatusOK {
					if rc := postJSON0(ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); rc != http.StatusOK {
						errs <- fmt.Errorf("client %d: release status %d", id, rc)
						return
					}
				} else if code != http.StatusConflict {
					errs <- fmt.Errorf("client %d: connect status %d", id, code)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if err := router.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for _, ps := range router.Stats().Planes {
		if ps.Fabric.Active != 0 || ps.Occupancy != 0 {
			t.Errorf("plane %s not drained after all releases: %+v", ps.Name, ps)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 2, 2, 4, 4)
	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Nodes != 16 || len(hz.Planes) != 2 {
		t.Errorf("healthz body %+v", hz)
	}
	for _, p := range hz.Planes {
		if !p.Healthy || p.FaultyChannels != 0 || p.PendingRepairs != 0 {
			t.Errorf("plane health %+v", p)
		}
	}
}

// TestHealthzBodyGolden pins the /healthz body byte for byte — served
// from Router.Health, it must stay what the Stats-derived body was: one
// clean plane carrying a circuit, one with a failed link, one killed.
func TestHealthzBodyGolden(t *testing.T) {
	ts, _ := newTestServer(t, 3, 2, 4, 1)
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 15}, nil); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	link := faultRequest{Plane: "plane1", FaultSet: faults.FaultSet{Links: []faults.LinkFault{{Level: 0, Switch: 0, Port: 0}}}}
	if code := postJSON(t, ts.URL+"/fault", link, nil); code != http.StatusOK {
		t.Fatalf("link fault status %d", code)
	}
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane2", Kill: true}, nil); code != http.StatusOK {
		t.Fatalf("kill status %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"status":"degraded","nodes":16,"open":1,"planes":[` +
		`{"plane":"plane0","healthy":true,"health":1,"breaker":"closed","faulty_channels":0,"degraded_capacity":1,"pending_repairs":0},` +
		`{"plane":"plane1","healthy":true,"health":1,"breaker":"closed","faulty_channels":2,"degraded_capacity":0.9375,"pending_repairs":0},` +
		`{"plane":"plane2","healthy":false,"health":1,"breaker":"open","faulty_channels":32,"degraded_capacity":0,"pending_repairs":0}]}` + "\n"
	if string(body) != want {
		t.Errorf("healthz body\n got %s want %s", body, want)
	}
}

// TestHealthzDegradedOnPendingRepairs pins the shutdown-satellite
// contract: /healthz reports "degraded" while any plane holds
// outstanding repair tickets, even after its channels are healed. A
// width-1 tree gives the held circuit exactly one route, so the repair
// attempt deterministically fails while the fault stands, and on a fake
// clock nobody advances its backoff parks the ticket where healthz can see
// it.
func TestHealthzDegradedOnPendingRepairs(t *testing.T) {
	clk := clock.NewFake()
	cfg := federation.Config{Clock: clk}
	for i := 0; i < 2; i++ {
		cfg.Planes = append(cfg.Planes, federation.PlaneConfig{
			Fabric: fabric.Config{Tree: topology.MustNew(2, 4, 1), BatchSize: 1, MaxWait: 200 * time.Microsecond},
		})
	}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})

	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 15}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	// Fault the held circuit's only uplink. The revocation queues an
	// immediate repair attempt, doomed while the fault stands, which the
	// clock's next step runs; the ticket is then parked behind its backoff,
	// and healing the channels leaves it the sole degradation signal.
	fault := faultRequest{
		Plane:    conn.Plane,
		FaultSet: faults.FaultSet{Links: []faults.LinkFault{{Level: 0, Switch: 0, Port: conn.Ports[0]}}},
	}
	var fr faultResponse
	if code := postJSON(t, ts.URL+"/fault", fault, &fr); code != http.StatusOK || fr.Revoked != 1 {
		t.Fatalf("fault status %d resp %+v", code, fr)
	}
	clk.Advance(0)
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	for _, p := range st.Planes {
		if p.Name == conn.Plane && p.Fabric.RepairAttempts != 1 {
			t.Fatalf("plane %s made %d repair attempts, want 1", p.Name, p.Fabric.RepairAttempts)
		}
	}
	repair := faultRequest{Plane: conn.Plane, Repair: true, FaultSet: fault.FaultSet}
	if code := postJSON(t, ts.URL+"/fault", repair, &fr); code != http.StatusOK {
		t.Fatalf("repair status %d", code)
	}
	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	for _, p := range hz.Planes {
		if p.FaultyChannels != 0 {
			t.Fatalf("plane %s still has %d faulty channels after heal", p.Plane, p.FaultyChannels)
		}
		want := int64(0)
		if p.Plane == conn.Plane {
			want = 1
		}
		if p.PendingRepairs != want {
			t.Fatalf("plane %s has %d pending repairs, want %d", p.Plane, p.PendingRepairs, want)
		}
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz %q with outstanding repair tickets, want degraded: %+v", hz.Status, hz)
	}
	// Releasing the owner retires the parked ticket, and health recovers
	// with the release's answer.
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); code != http.StatusOK {
		t.Fatalf("release status %d", code)
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz degraded after release: %+v", hz)
	}
}

func TestPprofGated(t *testing.T) {
	router := newTestRouter(t, 1, 2, 2, fabric.DefaultBatchSize, federation.PolicyHash)
	defer router.Close(context.Background())

	off := httptest.NewServer(newServer(router).routes())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	sv := newServer(router)
	sv.enablePprof = true
	on := httptest.NewServer(sv.routes())
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with -pprof: status %d", path, resp.StatusCode)
		}
	}
}

// TestStatsReportsEngine drives a spec-named parallel plane through the
// HTTP layer and checks what ran surfaces in the per-plane fabric
// breakdown of GET /stats: a one-request epoch is the engine's
// sequential fallback, named and counted as such.
func TestStatsReportsEngine(t *testing.T) {
	cfg := federation.Config{Planes: []federation.PlaneConfig{{
		Fabric: fabric.Config{
			Tree:          topology.MustNew(3, 4, 4),
			SchedulerSpec: "parallel,mode=racy,workers=2,rollback",
			BatchSize:     1,
		},
	}}}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})

	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 63}, nil); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}
	var raw map[string]any
	getJSON(t, ts.URL+"/stats", &raw)
	planes, _ := raw["planes"].([]any)
	if len(planes) != 1 {
		t.Fatalf("stats planes = %v", raw["planes"])
	}
	fb, _ := planes[0].(map[string]any)["fabric"].(map[string]any)
	if fb["last_epoch_engine"] != "level-wise/rollback" {
		t.Errorf("last_epoch_engine = %v", fb["last_epoch_engine"])
	}
	if fb["sequential_epochs"] != float64(1) || fb["parallel_epochs"] != float64(0) {
		t.Errorf("epoch split: sequential=%v parallel=%v, want 1/0", fb["sequential_epochs"], fb["parallel_epochs"])
	}
	// One held 0→63 circuit: two levels, four channels, and the gauge is
	// the count the utilization was computed from.
	channels := float64(2 * cfg.Planes[0].Fabric.Tree.TotalLinks())
	util, _ := fb["utilization"].(float64)
	if fb["occupancy"] != float64(4) || fb["occupancy"] != math.Round(util*channels) || fb["channel_allocs"] != float64(4) {
		t.Errorf("occupancy=%v channel_allocs=%v utilization=%v of %v channels, want 4, 4 and 4/%v",
			fb["occupancy"], fb["channel_allocs"], util, channels, channels)
	}
}

// postJSON0 is postJSON without the testing.T, usable from goroutines.
func postJSON0(url string, body any, out any) int {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil {
		if json.NewDecoder(resp.Body).Decode(out) != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// TestFaultEndpoints drives the fault-injection surface end to end on a
// single-plane federation (the plane field may be omitted): inject over
// HTTP, watch a held connection get revoked and repaired, read the
// degraded health, then heal and confirm recovery.
func TestFaultEndpoints(t *testing.T) {
	clk := clock.NewFake()
	cfg := federation.Config{Clock: clk, Planes: []federation.PlaneConfig{{
		Fabric: fabric.Config{Tree: topology.MustNew(2, 4, 4), BatchSize: 1, MaxWait: 200 * time.Microsecond},
	}}}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(router).routes())
	t.Cleanup(func() {
		ts.Close()
		router.Close(context.Background())
	})
	surf, _ := router.Plane("plane0")

	var conn connectResponse
	if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: 0, Dst: 15}, &conn); code != http.StatusOK {
		t.Fatalf("connect status %d", code)
	}

	// Kill the link the connection climbs through; no plane named — the
	// sole plane is the implied target.
	var fr faultResponse
	body := faultRequest{FaultSet: faults.FaultSet{Links: []faults.LinkFault{
		{Level: 0, Switch: 0, Port: conn.Ports[0]},
	}}}
	if code := postJSON(t, ts.URL+"/fault", body, &fr); code != http.StatusOK {
		t.Fatalf("fault status %d", code)
	}
	if fr.Plane != "plane0" || fr.Failed != 2 || fr.Revoked != 1 {
		t.Fatalf("fault response %+v, want plane0 failed=2 revoked=1", fr)
	}

	// Degraded health while the faults stand.
	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" || hz.Planes[0].FaultyChannels != 2 || hz.Planes[0].DegradedCapacity >= 1.0 {
		t.Fatalf("degraded healthz %+v", hz)
	}
	var fl faultsResponse
	getJSON(t, ts.URL+"/faults", &fl)
	if len(fl.Planes) != 1 || fl.Planes[0].FaultyChannels != 2 ||
		len(fl.Planes[0].Links) != 1 || fl.Planes[0].Links[0].Port != conn.Ports[0] {
		t.Fatalf("faults body %+v", fl)
	}

	// The repair loop re-admits the revoked connection around the fault,
	// in the epoch the clock's next step runs.
	clk.Advance(0)
	if n := surf.Stats().Repaired; n != 1 {
		t.Fatalf("%d repairs after the repair epoch, want 1", n)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if fb := st.Planes[0].Fabric; fb.Revoked != 1 || fb.Repaired != 1 || fb.FaultyChannels != 2 {
		t.Fatalf("stats after repair %+v", fb)
	}

	// Heal the whole plane (repair with an empty set); health returns to
	// ok and the handle releases.
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Repair: true}, &fr); code != http.StatusOK || fr.Repaired != 2 {
		t.Fatalf("repair-all status %d resp %+v", code, fr)
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Planes[0].DegradedCapacity != 1.0 {
		t.Fatalf("healed healthz %+v", hz)
	}
	if code := postJSON(t, ts.URL+"/release", releaseRequest{ID: conn.ID}, nil); code != http.StatusOK {
		t.Fatalf("release after repair status %d", code)
	}
}

// TestPlaneKillAndRepairOverHTTP exercises the whole-plane fault verbs:
// kill a named plane, watch traffic land on the survivor and health go
// degraded, then repair the plane and watch it rejoin.
func TestPlaneKillAndRepairOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, 2, 2, 4, 1)

	var fr faultResponse
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane0", Kill: true}, &fr); code != http.StatusOK {
		t.Fatalf("kill status %d", code)
	}
	if !fr.Killed || fr.Plane != "plane0" {
		t.Fatalf("kill response %+v", fr)
	}

	var hz healthzResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" || hz.Planes[0].Healthy || !hz.Planes[1].Healthy {
		t.Fatalf("healthz after kill %+v", hz)
	}
	// Admissions keep flowing, on the survivor.
	for i := 0; i < 4; i++ {
		var conn connectResponse
		if code := postJSON(t, ts.URL+"/connect", connectRequest{Src: i, Dst: 15 - i}, &conn); code != http.StatusOK {
			t.Fatalf("connect %d status %d", i, code)
		}
		if conn.Plane != "plane1" {
			t.Errorf("connect %d landed on %q, want plane1", i, conn.Plane)
		}
	}

	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane0", Repair: true}, &fr); code != http.StatusOK {
		t.Fatalf("plane repair status %d", code)
	}
	if fr.Plane != "plane0" || fr.Repaired == 0 {
		t.Fatalf("plane repair response %+v", fr)
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || !hz.Planes[0].Healthy {
		t.Fatalf("healthz after plane repair %+v", hz)
	}
}

// TestFaultEndpointValidation pins the error paths: malformed JSON,
// out-of-range components, the empty injection body, and plane
// addressing mistakes.
func TestFaultEndpointValidation(t *testing.T) {
	ts, _ := newTestServer(t, 2, 2, 4, 4)

	resp, err := http.Post(ts.URL+"/fault", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fault body status %d", resp.StatusCode)
	}

	var er errorResponse
	bad := faultRequest{Plane: "plane0", FaultSet: faults.FaultSet{Links: []faults.LinkFault{{Level: 9, Switch: 0, Port: 0}}}}
	if code := postJSON(t, ts.URL+"/fault", bad, &er); code != http.StatusBadRequest || er.Error == "" {
		t.Errorf("out-of-range fault: status %d body %+v", code, er)
	}
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane0"}, &er); code != http.StatusBadRequest {
		t.Errorf("empty injection: status %d", code)
	}
	// A multi-plane federation demands a plane name...
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Kill: true}, &er); code != http.StatusBadRequest {
		t.Errorf("unaddressed multi-plane fault: status %d", code)
	}
	// ...and rejects unknown ones.
	if code := postJSON(t, ts.URL+"/fault", faultRequest{Plane: "plane9", Kill: true}, &er); code != http.StatusBadRequest {
		t.Errorf("unknown plane: status %d", code)
	}
	// GET /faults on a healthy federation renders empty lists, not null.
	var raw map[string]any
	getJSON(t, ts.URL+"/faults", &raw)
	planes, ok := raw["planes"].([]any)
	if !ok || len(planes) != 2 {
		t.Fatalf("healthy /faults planes = %v", raw["planes"])
	}
	for _, p := range planes {
		if links, ok := p.(map[string]any)["links"].([]any); !ok || len(links) != 0 {
			t.Errorf("healthy /faults links = %v, want []", p.(map[string]any)["links"])
		}
	}
}

// TestBuildConfig pins the flag-vs-file resolution buildConfig performs
// for main.
func TestBuildConfig(t *testing.T) {
	opts, cfg, err := buildConfig([]string{"-addr", "127.0.0.1:0", "-planes", "3", "-policy", "least-loaded",
		"-levels", "2", "-children", "4", "-parents", "2", "-batch", "8", "-maxwait", "1ms", "-queue", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.addr != "127.0.0.1:0" || opts.validate || opts.pprof {
		t.Errorf("daemon options %+v", opts)
	}
	if len(cfg.Planes) != 3 || cfg.Policy != federation.PolicyLeastLoaded {
		t.Fatalf("flag-built config %+v", cfg)
	}
	if cfg.Planes[0].Fabric.Tree == cfg.Planes[1].Fabric.Tree {
		t.Error("planes share one tree")
	}
	if cfg.Planes[2].Fabric.BatchSize != 8 || cfg.Planes[2].Fabric.MaxWait != time.Millisecond {
		t.Errorf("plane knobs %+v", cfg.Planes[2].Fabric)
	}
	// No planes is the router's rule, so it is the shared check's refusal.
	if _, cfg, err := buildConfig([]string{"-planes", "0"}); err == nil && cfg.Check() == nil {
		t.Error("0 planes accepted")
	}
	if _, _, err := buildConfig([]string{"-policy", "fastest"}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, _, err := buildConfig([]string{"-config", "/does/not/exist.json"}); err == nil {
		t.Error("missing config file accepted")
	}

	// A -config file carries the shape and queue knobs itself: naming one
	// next to it is refused by name, never dropped; the daemon's own flags
	// stay legal.
	path := writeConfig(t, federation.Generate(2, 2, 4, 2, "", "random"))
	opts, cfg, err = buildConfig([]string{"-config", path, "-addr", ":9", "-validate", "-pprof"})
	if err != nil {
		t.Fatalf("-config with daemon flags: %v", err)
	}
	if len(cfg.Planes) != 2 || cfg.Policy != federation.PolicyRandom || !opts.validate || !opts.pprof || opts.addr != ":9" {
		t.Errorf("file-built config %+v, options %+v", cfg, opts)
	}
	// The flaky-process period is a constant, not a flag.
	if _, _, err := buildConfig([]string{"-gray-step", "1ms"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -gray-step") {
		t.Errorf("-gray-step: err = %v, want it refused as undefined", err)
	}
	for _, shape := range [][]string{{"-planes", "2"}, {"-policy", "hash"}, {"-levels", "2"}, {"-children", "4"},
		{"-parents", "2"}, {"-batch", "1"}, {"-maxwait", "1ms"}, {"-queue", "8"}, {"-timeout", "1s"},
		{"-scheduler", "backtrack"}} {
		_, _, err := buildConfig(append([]string{"-config", path}, shape...))
		if err == nil || !strings.Contains(err.Error(), shape[0]) {
			t.Errorf("-config with %s: err = %v, want a refusal naming the flag", shape[0], err)
		}
	}
	_, _, err = buildConfig([]string{"-batch", "1", "-config", path, "-queue", "8"})
	if err == nil || !strings.Contains(err.Error(), "-batch") || !strings.Contains(err.Error(), "-queue") {
		t.Errorf("-config with two shape flags: err = %v, want both named", err)
	}
}

// writeConfig writes fc where -config can load it and returns the path.
func writeConfig(t *testing.T, fc *federation.FileConfig) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fabric.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsAndFileAgree: there is one road from knobs to planes, so the
// same knobs given as ftserve flags and as a generated -config file
// build equal federation.Configs — and the strict reading of a negative
// duration holds on the flag road as it does on the file road.
func TestFlagsAndFileAgree(t *testing.T) {
	fc := federation.Generate(3, 2, 4, 2, "backtrack,depth=2", "round-robin")
	for i := range fc.Planes {
		fc.Planes[i].BatchSize, fc.Planes[i].QueueLimit = 4, 128
		fc.Planes[i].MaxWait, fc.Planes[i].AdmitTimeout = "3ms", "250ms"
	}
	_, fromFile, err := buildConfig([]string{"-config", writeConfig(t, fc)})
	if err != nil {
		t.Fatal(err)
	}
	_, fromFlags, err := buildConfig([]string{"-planes", "3", "-levels", "2", "-children", "4", "-parents", "2",
		"-scheduler", "backtrack,depth=2", "-policy", "round-robin",
		"-batch", "4", "-queue", "128", "-maxwait", "3ms", "-timeout", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	// Trees are compared by shape: each road builds its own.
	for _, cfg := range []*federation.Config{&fromFile, &fromFlags} {
		for i := range cfg.Planes {
			pf := &cfg.Planes[i].Fabric
			if got, want := pf.Tree.Spec(), topology.MustNew(2, 4, 2).Spec(); got != want {
				t.Fatalf("plane %d tree %v, want %v", i, got, want)
			}
			if pf.Trace != nil || pf.OnConnTerminal != nil {
				t.Fatalf("plane %d carries a hook: %+v", i, pf)
			}
			pf.Tree = nil
		}
	}
	if !reflect.DeepEqual(fromFile, fromFlags) {
		t.Errorf("the two roads disagree:\nfile  %+v\nflags %+v", fromFile, fromFlags)
	}

	for _, args := range [][]string{{"-maxwait", "-1s"}, {"-timeout", "-1s"}} {
		_, cfg, err := buildConfig(args)
		if err != nil {
			t.Errorf("%v: %v, want the shared check to be what refuses it", args, err)
			continue
		}
		if err := cfg.Check(); err == nil {
			t.Errorf("%v: -validate accepts a negative duration", args)
		}
		if r, err := federation.New(cfg); err == nil {
			r.Close(context.Background())
			t.Errorf("%v: a negative duration serves with the default", args)
		}
	}
}

// getJSON fetches and decodes a GET endpoint.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// postRaw posts body verbatim and returns the status.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestStrictBodies: a body that misspells a key or carries a second value
// is refused, not read as the zero request it decodes to.
func TestStrictBodies(t *testing.T) {
	t.Run("connect-unknown-fields", func(t *testing.T) {
		ts, router := newTestServer(t, 1, 2, 4, 1)
		if code := postRaw(t, ts.URL+"/connect", `{"source":3,"dest":9}`); code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
		if st := router.Stats(); st.Offered != 0 {
			t.Errorf("a refused body reached the router: offered %d", st.Offered)
		}
	})
	t.Run("connect-trailing-value", func(t *testing.T) {
		ts, router := newTestServer(t, 1, 2, 4, 1)
		if code := postRaw(t, ts.URL+"/connect", `{"src":1,"dst":2} {"src":5}`); code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
		if st := router.Stats(); st.Offered != 0 {
			t.Errorf("a refused body reached the router: offered %d", st.Offered)
		}
	})
	t.Run("fault-typo-keeps-other-faults", func(t *testing.T) {
		ts, _ := newTestServer(t, 1, 2, 4, 1)
		links := []faults.LinkFault{{Level: 0, Switch: 0, Port: 0}, {Level: 0, Switch: 1, Port: 0}}
		if code := postJSON(t, ts.URL+"/fault", faultRequest{FaultSet: faults.FaultSet{Links: links}}, nil); code != http.StatusOK {
			t.Fatalf("fault status %d", code)
		}
		// "link" for "links": read loosely, this is an empty targeted
		// repair, which is the whole-plane repair verb.
		if code := postRaw(t, ts.URL+"/fault", `{"repair":true,"link":[{"level":0,"switch":0,"port":0}]}`); code != http.StatusBadRequest {
			t.Errorf("status %d, want 400", code)
		}
		var fl faultsResponse
		getJSON(t, ts.URL+"/faults", &fl)
		if got := fl.Planes[0]; got.FaultyChannels != 4 || !reflect.DeepEqual(got.Links, links) {
			t.Errorf("plane faults after a refused repair: %+v, want %+v on 4 channels", got, links)
		}
	})
}

// strictDecode is the oracle both body fuzzers hold the server to: the
// body is exactly one JSON value naming only v's fields, as a reflective
// decoder reads it.
func strictDecode(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && dec.Decode(&struct{}{}) == io.EOF
}

// bodyRefused reports whether rec is decodeBody's 400.
func bodyRefused(rec *httptest.ResponseRecorder) bool {
	return rec.Code == http.StatusBadRequest && bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"error":"bad request body: `))
}

// postBody serves body on path as sized, with its Content-Length (which
// may take the fixed-shape scanner), or chunked, with none (which never
// does).
func postBody(h http.Handler, path string, body []byte, sized bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if !sized {
		req.ContentLength = -1
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// postShort serves body on path as a client that declared one byte more
// and hung up: net/http's body reader then ends in io.ErrUnexpectedEOF,
// which no road may read as a whole body.
func postShort(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrUnexpectedEOF)))
	req.ContentLength = int64(len(body)) + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// FuzzConnectBody: POST /connect answers decodeBody's 400 exactly when a
// strict decoder — unknown fields refused, exactly one value — refuses
// the body; it never answers anything but 200, 400 or 409; a 200 echoes
// the endpoints that decoder read; and a body sent with its
// Content-Length gets the status and body text it gets chunked, the
// strict road, but for the circuit id.
func FuzzConnectBody(f *testing.F) {
	for _, body := range []string{
		`{"src":0,"dst":15}`, `{"dst":3,"src":9}`, " {\"src\":1,\"dst\":2}\n", `{"src":4}`, `{}`,
		`{"src":-1,"dst":2}`, `{"src":16,"dst":0}`, `{"src":1.5,"dst":2}`, `null`, `{`, ``,
		`{"source":3,"dest":9}`, `{"src":1,"dst":2} {"src":5}`, `{"src":1,"dst":2}x`,
		`{"src":-0,"dst":1}`, `{"SRC":1,"dst":2}`, `{"src":1,"src":2,"dst":3}`, `{"\u0073rc":1,"dst":2}`,
		`{"src":1e1,"dst":2}`, `{"src":01,"dst":2}`, `{"src":1,"dst":2,}`, `{"src":9223372036854775807,"dst":0}`,
		`{"src":9223372036854775808,"dst":0}`, `{"src":-9223372036854775808,"dst":0}`,
		`{"src":18446744073709551616,"dst":0}`, "\t{\"src\" :\r\n1 , \"dst\": 2 }\r\n", "{\"src\":1,\"dst\":2}\v",
		`{"src"=1,"dst":2}`, `{"src":1;"dst":2}`,
		`{"src":1,"dst":2}` + strings.Repeat(" ", 120),
	} {
		f.Add([]byte(body))
	}
	router := newTestRouter(f, 1, 2, 4, 1, federation.PolicyRoundRobin)
	f.Cleanup(func() { router.Close(context.Background()) })
	h := newServer(router).routes()
	f.Fuzz(func(t *testing.T, body []byte) {
		var want connectRequest
		strict := strictDecode(body, &want)
		var recs [2]*httptest.ResponseRecorder
		var ids [2]uint64
		for i, sized := range []bool{true, false} {
			rec := postBody(h, "/connect", body, sized)
			recs[i] = rec
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
			default:
				t.Fatalf("status %d for %q", rec.Code, body)
			}
			if bodyRefused(rec) == strict {
				t.Fatalf("status %d %s for %q, which a strict decoder reads as %v", rec.Code, rec.Body, body, strict)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var got connectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if got.Src != want.Src || got.Dst != want.Dst {
				t.Fatalf("granted %d→%d for %q, which reads %d→%d", got.Src, got.Dst, body, want.Src, want.Dst)
			}
			ids[i] = got.ID
			// Hand the circuit back so the plane never fills up, and the
			// chunked post meets the state the sized one did.
			if rec := postBody(h, "/release", []byte(fmt.Sprintf(`{"id":%d}`, got.ID)), true); rec.Code != http.StatusOK {
				t.Fatalf("release status %d", rec.Code)
			}
		}
		if rec := postShort(h, "/connect", body); !bodyRefused(rec) {
			t.Fatalf("status %d %s for %q cut short", rec.Code, rec.Body, body)
		}
		sized := recs[0].Body.Bytes()
		chunked := bytes.Replace(recs[1].Body.Bytes(), []byte(fmt.Sprintf(`{"id":%d,`, ids[1])), []byte(fmt.Sprintf(`{"id":%d,`, ids[0])), 1)
		if recs[0].Code != recs[1].Code || !bytes.Equal(sized, chunked) {
			t.Fatalf("%q: sized %d %s, chunked %d %s", body, recs[0].Code, sized, recs[1].Code, recs[1].Body)
		}
	})
}

// FuzzReleaseBody: POST /release answers decodeBody's 400 exactly when a
// strict decoder refuses the body, and otherwise 404 for an id that is
// not open and 200 for one that is; a body sent with its Content-Length
// gets the status and body text it gets chunked.
func FuzzReleaseBody(f *testing.F) {
	for _, body := range []string{
		`{"id":1}`, ` {"id":0} `, `{"id":-0}`, `{"id":-1}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
		`{"id":1e3}`, `{"id":1.0}`, `{"ID":1}`, `{"id":1,"id":2}`, `{"\u0069d":1}`, `{"id":1} 2`, `{"id":1}{}`,
		`{"id":null}`, `{"id":"1"}`, `{}`, `[]`, ``, `{"id":01}`, "\r\n{ \"id\"\t:\t7 }\n", "\f{\"id\":1}", `{"id":1` + strings.Repeat("\t", 130) + `}`,
	} {
		f.Add([]byte(body))
	}
	router := newTestRouter(f, 1, 2, 4, 1, federation.PolicyRoundRobin)
	f.Cleanup(func() { router.Close(context.Background()) })
	s := newServer(router)
	h := s.routes()
	f.Fuzz(func(t *testing.T, body []byte) {
		var want releaseRequest
		strict := strictDecode(body, &want)
		for _, open := range []bool{false, true} {
			var recs [2]*httptest.ResponseRecorder
			for i, sized := range []bool{true, false} {
				if open && strict {
					c, err := router.Connect(context.Background(), 0, 15)
					if err != nil {
						t.Fatal(err)
					}
					s.mu.Lock()
					s.open[want.ID] = c
					s.mu.Unlock()
				}
				rec := postBody(h, "/release", body, sized)
				recs[i] = rec
				wantCode := http.StatusBadRequest
				if strict && open {
					wantCode = http.StatusOK
				} else if strict {
					wantCode = http.StatusNotFound
				}
				if rec.Code != wantCode || bodyRefused(rec) == strict {
					t.Fatalf("status %d %s for %q, want %d", rec.Code, rec.Body, body, wantCode)
				}
			}
			if recs[0].Code != recs[1].Code || !bytes.Equal(recs[0].Body.Bytes(), recs[1].Body.Bytes()) {
				t.Fatalf("%q: sized %d %s, chunked %d %s", body, recs[0].Code, recs[0].Body, recs[1].Code, recs[1].Body)
			}
		}
		if rec := postShort(h, "/release", body); !bodyRefused(rec) {
			t.Fatalf("status %d %s for %q cut short", rec.Code, rec.Body, body)
		}
	})
}
