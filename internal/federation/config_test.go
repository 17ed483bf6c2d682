package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestConfigRoundTrip pins the gen → write → load → build pipeline the
// fttopo gen | ftserve -config smoke exercises.
func TestConfigRoundTrip(t *testing.T) {
	fc := Generate(3, 2, 4, 2, "backtrack,depth=2", "least-loaded")
	fc.FailoverLimit = 2
	fc.EjectAfter = 5
	fc.ProbeInterval = "75ms"
	fc.Planes[1].BatchSize = 4
	fc.Planes[1].MaxWait = "1ms"
	fc.Planes[2].AdmitTimeout = "250ms"

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Planes) != 3 || got.Policy != "least-loaded" || got.Planes[1].MaxWait != "1ms" {
		t.Fatalf("round trip mangled the config: %+v", got)
	}

	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != PolicyLeastLoaded || cfg.FailoverLimit != 2 || cfg.EjectAfter != 5 {
		t.Errorf("built router knobs: %+v", cfg)
	}
	if cfg.ProbeInterval != 75*time.Millisecond {
		t.Errorf("ProbeInterval = %v, want 75ms", cfg.ProbeInterval)
	}
	if cfg.Planes[1].Fabric.MaxWait != time.Millisecond || cfg.Planes[1].Fabric.BatchSize != 4 {
		t.Errorf("plane 1 fabric knobs: %+v", cfg.Planes[1].Fabric)
	}
	if cfg.Planes[0].Fabric.Tree.Nodes() != 16 {
		t.Errorf("plane 0 nodes = %d, want 16", cfg.Planes[0].Fabric.Tree.Nodes())
	}
	// Planes must not share a tree: independent fabrics, same shape.
	if cfg.Planes[0].Fabric.Tree == cfg.Planes[1].Fabric.Tree {
		t.Error("planes share one *topology.Tree")
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	h, err := r.Connect(context.Background(), 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigWeightRoundTrip: per-plane weight and a parallel-engine
// scheduler spec survive gen → write → load → build and land on the
// runtime PlaneConfig / fabric.Config.
func TestConfigWeightRoundTrip(t *testing.T) {
	const shard = "parallel,mode=shard,workers=2,steal,rollback"
	fc := Generate(2, 2, 4, 2, "", "hash")
	fc.Planes[0].Weight = 3
	fc.Planes[1].Scheduler = shard

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Planes[0].Weight != 3 || got.Planes[1].Weight != 0 {
		t.Fatalf("weights mangled: %+v", got.Planes)
	}
	if got.Planes[1].Scheduler != shard {
		t.Fatalf("scheduler spec mangled: %+v", got.Planes[1])
	}

	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Planes[0].Weight != 3 || cfg.Planes[1].Weight != 0 {
		t.Errorf("built weights: %v, %v", cfg.Planes[0].Weight, cfg.Planes[1].Weight)
	}
	if f := cfg.Planes[1].Fabric; f.SchedulerSpec != shard {
		t.Errorf("built fabric scheduler spec: %+v", f)
	}

	// The built config constructs a live router whose runtime weights
	// reflect the spec (omitted weight defaults to 1 → weighted router).
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	if r.planes[0].weight != 3 || r.planes[1].weight != 1 || !r.weighted {
		t.Errorf("runtime weights: %v, %v (weighted=%v)",
			r.planes[0].weight, r.planes[1].weight, r.weighted)
	}
}

// TestConfigIncrementalRoundTrip: a reuse-cost scheduler spec — the
// carried-circuit port score E20's incremental discipline runs — survives
// write → load → build, lands on fabric.Config, and constructs a live
// plane running that engine.
func TestConfigIncrementalRoundTrip(t *testing.T) {
	const reuse = "level-wise,rollback,reuse-cost=4"
	fc := Generate(2, 2, 4, 2, "", "hash")
	fc.Planes[0].Scheduler = reuse
	fc.Planes[1].Scheduler = "levelwise,reuse-cost=2"

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Planes[0].Scheduler != reuse {
		t.Fatalf("scheduler spec mangled: %+v", got.Planes[0])
	}
	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f := cfg.Planes[0].Fabric; f.SchedulerSpec != reuse {
		t.Fatalf("built fabric scheduler spec: %+v", f)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	h, err := r.Connect(context.Background(), 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if s := r.planes[0].surf.Stats(); s.ReuseCost != 4 {
		t.Errorf("plane 0 reuse-cost echo = %d, want 4", s.ReuseCost)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"bad policy", `{"policy":"fastest","planes":[{"levels":2,"arity":2,"width":1}]}`, "unknown policy"},
		{"no planes", `{"planes":[]}`, "no planes"},
		{"bad shape", `{"planes":[{"levels":0,"arity":2,"width":1}]}`, "plane0"},
		{"bad scheduler", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"warp-drive"}]}`, "warp-drive"},
		{"bad duration", `{"planes":[{"levels":2,"arity":2,"width":1,"max_wait":"fast"}]}`, "max_wait"},
		{"node mismatch", `{"planes":[{"levels":2,"arity":2,"width":1},{"name":"b","levels":2,"arity":4,"width":1}]}`, "b serves"},
		{"unknown field", `{"plains":[]}`, "unknown field"},
		{"negative weight", `{"planes":[{"levels":2,"arity":2,"width":1,"weight":-1}]}`, "negative weight"},
		{"bad parallel mode", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,mode=sharded"}]}`, "mode="},
		{"steal without shard", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,steal"}]}`, "steal requires"},
		{"negative reuse_cost", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"level-wise,reuse-cost=-2"}]}`, "reuse-cost=-2"},
		{"removed incremental flag", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"level-wise,incremental,reuse-cost=2"}]}`, "name reuse-cost=K alone"},
		{"reuse_cost with scheduler", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"backtrack,reuse-cost=2"}]}`, "reuse-cost"},
		{"incremental without capability", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"optimal,incremental"}]}`, "incremental"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("config accepted: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The engine knobs that used to be PlaneSpec keys now live only in the
	// scheduler spec; a file still carrying one is rejected by name, never
	// silently ignored.
	for _, key := range []string{"parallel_threshold", "parallel_workers", "parallel_racy", "parallel_mode",
		"parallel_steal", "incremental", "reuse_cost", "release_ring", "delivery_pipeline", "drain_worker",
		"stats_snapshots"} {
		_, err := Load(strings.NewReader(`{"planes":[{"levels":2,"arity":2,"width":1,"` + key + `":1}]}`))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("removed key %q: err = %v, want an unknown-field error naming it", key, err)
		}
	}
	if _, err := LoadFile("/does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
	var empty FileConfig
	if err := empty.Validate(); !errors.Is(err, ErrNoPlanes) {
		t.Errorf("empty config: %v, want ErrNoPlanes", err)
	}
}

// validateCase is one row of the Validate-vs-New table: a file and
// whether Validate (hence New) must accept it.
type validateCase struct {
	name string
	fc   *FileConfig
	ok   bool
}

// validateCases is the table, both sides of each rule: the per-plane rules
// over one or two planes, then the router-level rules over one default
// plane. It also seeds FuzzValidateMatchesNew.
func validateCases() []validateCase {
	plane := func(edit func(*PlaneSpec)) PlaneSpec {
		ps := PlaneSpec{Levels: 2, Arity: 4, Width: 2}
		edit(&ps)
		return ps
	}
	one := func(edit func(*PlaneSpec)) []PlaneSpec { return []PlaneSpec{plane(edit)} }
	var cases []validateCase
	for _, tc := range []struct {
		name   string
		planes []PlaneSpec
		ok     bool
	}{
		{"defaults", []PlaneSpec{plane(func(*PlaneSpec) {})}, true},
		{"parallel shard spec", []PlaneSpec{plane(func(p *PlaneSpec) { p.Scheduler = "parallel,mode=shard,steal,workers=2" })}, true},
		{"reuse spec", []PlaneSpec{plane(func(p *PlaneSpec) { p.Scheduler = "levelwise,reuse-cost=4" })}, true},
		{"removed incremental flag", []PlaneSpec{plane(func(p *PlaneSpec) { p.Scheduler = "levelwise,incremental" })}, false},
		{"backtrack spec", []PlaneSpec{plane(func(p *PlaneSpec) { p.Scheduler = "backtrack,depth=2" })}, true},
		{"racy steal spec", []PlaneSpec{plane(func(p *PlaneSpec) { p.Scheduler = "parallel,mode=racy,steal" })}, false},
		{"gray knobs", []PlaneSpec{plane(func(p *PlaneSpec) {
			p.FlapThreshold, p.FlapHalfLife, p.QuarantineProbation = 3, "1s", "100ms"
			p.RepairBudgetRate, p.RepairBudgetBurst = 256, 1024
		})}, true},
		{"unlimited repair budget", []PlaneSpec{plane(func(p *PlaneSpec) { p.RepairBudgetRate = -1 })}, true},
		{"burst with unlimited budget", []PlaneSpec{plane(func(p *PlaneSpec) { p.RepairBudgetRate, p.RepairBudgetBurst = -1, 8 })}, false},
		{"burst without rate", []PlaneSpec{plane(func(p *PlaneSpec) { p.RepairBudgetBurst = 8 })}, false},
		{"negative burst", []PlaneSpec{plane(func(p *PlaneSpec) { p.RepairBudgetRate, p.RepairBudgetBurst = 10, -1 })}, false},
		{"negative flap threshold", []PlaneSpec{plane(func(p *PlaneSpec) { p.FlapThreshold = -1 })}, false},
		{"negative probation", []PlaneSpec{plane(func(p *PlaneSpec) { p.QuarantineProbation = "-1s" })}, false},
		{"two named planes", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "a" }), plane(func(p *PlaneSpec) { p.Name = "b" })}, true},
		{"duplicate names", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "a" }), plane(func(p *PlaneSpec) { p.Name = "a" })}, false},
		{"name shadows a default", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "plane1" }), plane(func(*PlaneSpec) {})}, false},
		{"node mismatch", []PlaneSpec{plane(func(*PlaneSpec) {}), plane(func(p *PlaneSpec) { p.Arity = 2 })}, false},
		{"negative weight", one(func(p *PlaneSpec) { p.Weight = -1 }), false},
		{"negative max_wait", one(func(p *PlaneSpec) { p.MaxWait = "-1s" }), false},
		{"negative admit_timeout", one(func(p *PlaneSpec) { p.AdmitTimeout = "-1s" }), false},
		{"negative repair_backoff", one(func(p *PlaneSpec) { p.RepairBackoff = "-1ms" }), false},
		{"negative flap_half_life", one(func(p *PlaneSpec) { p.FlapHalfLife = "-1s" }), false},
	} {
		cases = append(cases, validateCase{tc.name, &FileConfig{Planes: tc.planes}, tc.ok})
	}
	for _, tc := range []struct {
		name string
		ok   bool
		edit func(*FileConfig)
	}{
		{"router gray knobs", true, func(fc *FileConfig) {
			fc.ProbeInterval, fc.HealthAlpha, fc.OpenBelow, fc.LatencyBudget = "75ms", 0.3, 0.1, "3ms"
			fc.FailoverBudgetRate, fc.FailoverBudgetBurst = 50, 75
		}},
		{"health_alpha above 1", false, func(fc *FileConfig) { fc.HealthAlpha = 1.5 }},
		{"negative health_alpha", false, func(fc *FileConfig) { fc.HealthAlpha = -0.1 }},
		{"open_below at 1", false, func(fc *FileConfig) { fc.OpenBelow = 1 }},
		{"negative open_below", false, func(fc *FileConfig) { fc.OpenBelow = -0.2 }},
		{"failover burst without a rate", false, func(fc *FileConfig) { fc.FailoverBudgetBurst = 8 }},
		{"negative failover burst", false, func(fc *FileConfig) { fc.FailoverBudgetRate, fc.FailoverBudgetBurst = 10, -1 }},
		{"negative failover rate", false, func(fc *FileConfig) { fc.FailoverBudgetRate = -1 }},
		{"negative latency_budget", false, func(fc *FileConfig) { fc.LatencyBudget = "-1ms" }},
		{"negative probe_interval", false, func(fc *FileConfig) { fc.ProbeInterval = "-50ms" }},
	} {
		fc := &FileConfig{Planes: one(func(*PlaneSpec) {})}
		tc.edit(fc)
		cases = append(cases, validateCase{tc.name, fc, tc.ok})
	}
	return cases
}

// validateMatchesNew runs Validate and Build → New on fc and describes
// where they disagree ("" when they agree). Any router built is closed.
func validateMatchesNew(fc *FileConfig) (valid bool, problem string) {
	vErr := fc.Validate()
	cfg, err := fc.Build()
	if err != nil {
		if vErr == nil {
			return true, fmt.Sprintf("Build() = %v after Validate passed", err)
		}
		return false, ""
	}
	r, err := New(cfg)
	if err == nil {
		r.Close(context.Background())
	}
	if (err == nil) != (vErr == nil) {
		return vErr == nil, fmt.Sprintf("Validate() = %v but New() = %v", vErr, err)
	}
	return vErr == nil, ""
}

// TestValidateMatchesNew pins Validate's promise — it rejects everything
// Build → New would — on both sides of each rule. Validate is Build plus
// the check New itself runs (Config.Check), so the promise holds by
// construction; the rows keep it from being taken apart: whatever
// Validate accepts must start, and whatever it refuses New must refuse
// too, whenever the file gets as far as a Config.
func TestValidateMatchesNew(t *testing.T) {
	for _, tc := range validateCases() {
		valid, problem := validateMatchesNew(tc.fc)
		if problem != "" {
			t.Errorf("%s: %s", tc.name, problem)
		}
		if valid != tc.ok {
			t.Errorf("%s: Validate() accepts = %v, want %v", tc.name, valid, tc.ok)
		}
	}
}

// FuzzValidateMatchesNew holds the same promise over arbitrary files: for
// every input Load's parser accepts whose planes stay small (at most four
// planes of at most four levels, arity and width at most 16), Validate
// passes exactly when Build and then New succeed. Seeded with fttopo gen
// output and TestValidateMatchesNew's table, written as JSON.
func FuzzValidateMatchesNew(f *testing.F) {
	seed := func(fc *FileConfig) {
		var b bytes.Buffer
		if err := fc.Write(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	seed(Generate(4, 3, 4, 4, "", "least-loaded"))
	seed(Generate(2, 2, 4, 2, "backtrack,depth=2", "hash"))
	seed(Generate(1, 3, 2, 2, "parallel,mode=shard,workers=2", "round-robin"))
	for _, tc := range validateCases() {
		seed(tc.fc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, err := decode(bytes.NewReader(data))
		if err != nil || len(fc.Planes) > 4 {
			return
		}
		for _, ps := range fc.Planes {
			if ps.Levels > 4 || ps.Arity > 16 || ps.Width > 16 {
				return
			}
		}
		if _, problem := validateMatchesNew(fc); problem != "" {
			t.Fatalf("%s\ninput: %s", problem, data)
		}
	})
}

func TestParsePolicyGrammar(t *testing.T) {
	for _, name := range Policies() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParsePolicy(%q).String() = %q", name, p.String())
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyHash {
		t.Errorf("empty policy = %v, %v; want hash", p, err)
	}
	for alias, want := range map[string]Policy{"rr": PolicyRoundRobin, "rand": PolicyRandom, "ll": PolicyLeastLoaded, "least": PolicyLeastLoaded} {
		if p, err := ParsePolicy(alias); err != nil || p != want {
			t.Errorf("alias %q = %v, %v; want %v", alias, p, err, want)
		}
	}
	if _, err := ParsePolicy("fastest"); err == nil {
		t.Error("ParsePolicy(fastest) succeeded")
	}
}
