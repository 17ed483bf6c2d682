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
	if cfg.Policy != PolicyLeastLoaded {
		t.Errorf("built router knobs: %+v", cfg)
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

// TestConfigParallelSpecRoundTrip: a parallel-engine scheduler spec
// survives gen → write → load → build, lands on fabric.Config, and
// constructs a live router.
func TestConfigParallelSpecRoundTrip(t *testing.T) {
	const shard = "parallel,mode=shard,workers=2,steal,rollback"
	fc := Generate(2, 2, 4, 2, "", "hash")
	fc.Planes[1].Scheduler = shard

	var buf bytes.Buffer
	if err := fc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Planes[1].Scheduler != shard {
		t.Fatalf("scheduler spec mangled: %+v", got.Planes[1])
	}

	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f := cfg.Planes[1].Fabric; f.SchedulerSpec != shard {
		t.Errorf("built fabric scheduler spec: %+v", f)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Close(context.Background())
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
		{"bad parallel mode", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,mode=sharded"}]}`, "mode="},
		{"steal without shard", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"parallel,steal"}]}`, "steal requires"},
		{"negative reuse_cost", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"level-wise,reuse-cost=-2"}]}`, "reuse-cost=-2"},
		{"removed incremental flag", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"level-wise,incremental,reuse-cost=2"}]}`, "name reuse-cost=K alone"},
		{"reuse_cost with scheduler", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"backtrack,reuse-cost=2"}]}`, "reuse-cost"},
		{"incremental without capability", `{"planes":[{"levels":2,"arity":2,"width":1,"scheduler":"optimal,incremental"}]}`, "incremental"},
		{"second object", `{"planes":[{"levels":2,"arity":2,"width":1}]} {"policy":"nope"}`, "after the config object"},
		{"trailing garbage", `{"planes":[{"levels":2,"arity":2,"width":1}]} garbage`, "after the config object"},
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

// TestRetiredGrayKeysRefused: the knobs the grammar retired — the
// failover limit and budget, the latency budget, the score rule's
// constants, the breaker's streak and probe interval, the repair budget,
// retries and backoff, the damping clock and the plane weight — fail Load
// by name wherever a file still carries one, never silently dropped.
func TestRetiredGrayKeysRefused(t *testing.T) {
	for _, tc := range []struct{ key, json string }{
		{"failover_limit", `{"failover_limit":2,"planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"failover_budget_rate", `{"failover_budget_rate":100,"planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"failover_budget_burst", `{"failover_budget_burst":200,"planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"health_alpha", `{"health_alpha":0.2,"planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"open_below", `{"open_below":0.15,"planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"latency_budget", `{"latency_budget":"2ms","planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"eject_after", `{"eject_after":3,"planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"probe_interval", `{"probe_interval":"50ms","planes":[{"levels":2,"arity":2,"width":1}]}`},
		{"repair_retries", `{"planes":[{"levels":2,"arity":2,"width":1,"repair_retries":8}]}`},
		{"repair_backoff", `{"planes":[{"levels":2,"arity":2,"width":1,"repair_backoff":"2ms"}]}`},
		{"flap_half_life", `{"planes":[{"levels":2,"arity":2,"width":1,"flap_half_life":"1s"}]}`},
		{"quarantine_probation", `{"planes":[{"levels":2,"arity":2,"width":1,"quarantine_probation":"100ms"}]}`},
		{"repair_budget_rate", `{"planes":[{"levels":2,"arity":2,"width":1,"repair_budget_rate":256}]}`},
		{"repair_budget_burst", `{"planes":[{"levels":2,"arity":2,"width":1,"repair_budget_burst":1024}]}`},
		{"weight", `{"planes":[{"levels":2,"arity":2,"width":1,"weight":2}]}`},
	} {
		_, err := Load(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.key+`"`) {
			t.Errorf("retired key %q: err = %v, want an unknown-field error naming it", tc.key, err)
		}
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
		{"gray knob", []PlaneSpec{plane(func(p *PlaneSpec) { p.FlapThreshold = 3 })}, true},
		{"negative flap threshold", []PlaneSpec{plane(func(p *PlaneSpec) { p.FlapThreshold = -1 })}, false},
		{"two named planes", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "a" }), plane(func(p *PlaneSpec) { p.Name = "b" })}, true},
		{"duplicate names", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "a" }), plane(func(p *PlaneSpec) { p.Name = "a" })}, false},
		{"name shadows a default", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "plane1" }), plane(func(*PlaneSpec) {})}, false},
		{"node mismatch", []PlaneSpec{plane(func(*PlaneSpec) {}), plane(func(p *PlaneSpec) { p.Arity = 2 })}, false},
		{"bad max_wait", one(func(p *PlaneSpec) { p.MaxWait = "later" }), false},
		{"negative max_wait", one(func(p *PlaneSpec) { p.MaxWait = "-1s" }), false},
		{"negative admit_timeout", one(func(p *PlaneSpec) { p.AdmitTimeout = "-1s" }), false},
		{"bad admit_timeout", one(func(p *PlaneSpec) { p.AdmitTimeout = "soon" }), false},
		{"negative batch_size defaults", one(func(p *PlaneSpec) { p.BatchSize = -4 }), true},
		{"queue_limit below batch_size", one(func(p *PlaneSpec) { p.BatchSize, p.QueueLimit = 16, 4 }), true},
		{"fractional flap threshold", one(func(p *PlaneSpec) { p.FlapThreshold = 2.5 }), true},
		{"zero levels", one(func(p *PlaneSpec) { p.Levels = 0 }), false},
		{"queue knobs", one(func(p *PlaneSpec) { p.BatchSize, p.MaxWait, p.QueueLimit, p.AdmitTimeout = 8, "1ms", 64, "250ms" }), true},
		{"zero max_wait defaults", one(func(p *PlaneSpec) { p.MaxWait = "0s" }), true},
		{"zero admit_timeout waits", one(func(p *PlaneSpec) { p.AdmitTimeout = "0s" }), true},
		{"negative queue_limit defaults", one(func(p *PlaneSpec) { p.QueueLimit = -1 }), true},
		{"wide switch", one(func(p *PlaneSpec) { p.Width = 65 }), false},
		{"unknown scheduler", one(func(p *PlaneSpec) { p.Scheduler = "fastest-fit" }), false},
		{"named plane beside a default one", []PlaneSpec{plane(func(p *PlaneSpec) { p.Name = "a" }), plane(func(*PlaneSpec) {})}, true},
	} {
		cases = append(cases, validateCase{tc.name, &FileConfig{Planes: tc.planes}, tc.ok})
	}
	for _, tc := range []struct {
		name string
		ok   bool
		edit func(*FileConfig)
	}{
		{"policy alias", true, func(fc *FileConfig) { fc.Policy = "ll" }},
		{"unknown policy", false, func(fc *FileConfig) { fc.Policy = "fastest" }},
		{"round-robin policy", true, func(fc *FileConfig) { fc.Policy = "round-robin" }},
		{"random policy", true, func(fc *FileConfig) { fc.Policy = "random" }},
		{"no planes", false, func(fc *FileConfig) { fc.Planes = nil }},
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
