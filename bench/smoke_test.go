package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke is the -smoke mode under go test: all four workloads for one
// second each, ftserve built and spawned, every output check run, every
// declared metric present; then one traced run for the per-layer names and
// the trace file. No bounds and no timing assertions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns ftserve")
	}
	r, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := []string{"setup_s", "req_per_s", "connect_p50_us", "connect_p99_us", "grant_ratio", "mem_mb"}
	for _, name := range workloadNames {
		rec, err := r.runWorkload(options{workload: name, seed: 1, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d: %v", name, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
		}
		if len(rec.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(rec.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := rec.Metrics[m]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; every one must be present and never 0", name, m, v.Value)
			}
		}
		if name == "batch_perm" && rec.Info["allocs_per_req"] != 0 {
			t.Errorf("batch_perm allocates: %v per request", rec.Info["allocs_per_req"])
		}
	}

	rec, err := r.runWorkload(options{workload: "fed_degraded", seed: 2, seconds: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("traced fed_degraded at seed 2 failed its checks: %v", rec.Problems)
	}
	if len(rec.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run: %d metrics, want %d", len(rec.Metrics), len(perLayerMetrics))
	}
	for _, d := range perLayerMetrics {
		if _, ok := rec.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
	if rec.Metrics["federation.failovers_per_req"].Value <= 0 || rec.Metrics["core.steps_per_req"].Value <= 0 {
		t.Errorf("traced fed_degraded shows no failovers or no scheduling steps: %v", rec.Metrics)
	}
	if len(rec.budget) == 0 || len(rec.spans) != 3 {
		t.Errorf("traced run: %d budget rows, %d span names", len(rec.budget), len(rec.spans))
	}
	if fi, err := os.Stat(filepath.Join(r.root, "bench", "out", "trace-fed_degraded.json")); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
