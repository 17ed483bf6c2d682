package fabric

// Tests of what a Stats snapshot costs and what it looks like from
// outside: a fixed number of allocations however long the manager has run,
// fixed-size histograms, and the JSON key set operators' tooling reads.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topology"
)

var statsSink Stats

// TestStatsAllocatesO1: Stats allocates the Hist slices of the
// distributions that have a spread and nothing else — the same handful
// after ten epochs as after a hundred thousand — and the histograms it
// copies are a fixed part of the Manager, under 24 KB in all.
func TestStatsAllocatesO1(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tree := topology.MustNew(2, 4, 4)
	m := manualManager(t, tree)
	if size := unsafe.Sizeof(m.hist); size > 24<<10 {
		t.Errorf("the manager's histograms take %d bytes, want at most 24 KB", size)
	}
	nodes := tree.Nodes()
	tickets := make([]*ticket, 3)
	epoch := func(i int) { // one to three grants through the top, released before the next
		n := 1 + i%3
		for j := 0; j < n; j++ {
			tickets[j] = m.getTicket((i+4*j)%nodes, (i+4*j+nodes/2)%nodes)
		}
		runEpoch(t, m, tickets[:n]...)
		for _, tk := range tickets[:n] {
			r := <-tk.resp
			if r.err != nil {
				t.Fatalf("epoch %d: %d→%d denied: %v", i, tk.req.Src, tk.req.Dst, r.err)
			}
			if err := r.h.Release(); err != nil {
				t.Fatal(err)
			}
			m.putTicket(tk)
		}
	}
	var after []float64
	ran := 0
	for _, epochs := range []int{0, 10, 100000} {
		for ; ran < epochs; ran++ {
			epoch(ran)
		}
		allocs := testing.AllocsPerRun(20, func() { statsSink = m.Stats() })
		if allocs > 8 {
			t.Errorf("Stats after %d epochs allocates %.1f objects, want at most 8", epochs, allocs)
		}
		after = append(after, allocs)
	}
	if after[1] != after[2] {
		t.Errorf("Stats allocates %.1f objects after 10 epochs and %.1f after 100000", after[1], after[2])
	}
	s := m.Stats()
	if lo, hi := stats.GenSize, 2*stats.GenSize-1; s.EpochSize.N < lo || s.EpochSize.N > hi || s.EpochSize.N != s.EpochLatencyMS.N || s.EpochSize.N != s.RouteChurn.N {
		t.Errorf("after 100000 epochs the distributions hold %d / %d / %d samples, want the same count in [%d, %d]",
			s.EpochSize.N, s.EpochLatencyMS.N, s.RouteChurn.N, lo, hi)
	}
	if s.EpochSize.Min != 1 || s.EpochSize.Max != 3 || s.EpochSize.P50 != 2 || s.EpochSize.Mean < 1.99 || s.EpochSize.Mean > 2.01 {
		t.Errorf("epoch sizes cycle 1, 2, 3: %+v", s.EpochSize)
	}
}

// TestStatsJSONKeys pins the wire form of a snapshot: the JSON keys of
// Stats and of Dist, in order, with their omitempty flags, and that a live
// snapshot marshals to exactly the keys those tags allow.
func TestStatsJSONKeys(t *testing.T) {
	tags := func(v any) []string {
		ty := reflect.TypeOf(v)
		out := make([]string, ty.NumField())
		for i := range out {
			out[i] = ty.Field(i).Tag.Get("json")
		}
		return out
	}
	wantStats := []string{
		"offered", "granted", "rejected", "cancelled", "released", "overflow",
		"drain_refused,omitempty", "epochs", "active", "queue_depth", "utilization",
		"occupancy", "channel_allocs", "epoch_size", "epoch_latency_ms",
		"sequential_epochs", "parallel_epochs", "last_epoch_engine,omitempty",
		"revoked", "repaired", "repair_failed", "repair_aborted", "pending_repairs",
		"faulty_channels", "degraded_capacity", "repair_latency_ms", "repair_depth",
		"repair_attempts", "flap_events,omitempty",
		"quarantine_events,omitempty", "quarantined,omitempty",
		"repaired_on_held_trunk,omitempty", "reuse_cost,omitempty",
		"torn_routes", "established_routes", "route_churn",
	}
	wantDist := []string{"n", "mean", "min", "max", "stddev", "p50", "p95", "p99", "hist,omitempty"}
	if got := tags(Stats{}); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("Stats JSON tags changed:\n got %q\nwant %q", got, wantStats)
	}
	if got := tags(Dist{}); !reflect.DeepEqual(got, wantDist) {
		t.Errorf("Dist JSON tags changed:\n got %q\nwant %q", got, wantDist)
	}

	// A live snapshot: two epochs of different sizes and one repair.
	tree := topology.MustNew(2, 4, 4)
	m := manualManager(t, tree)
	first := m.getTicket(0, tree.Nodes()-1)
	runEpoch(t, m, first)
	held := <-first.resp
	if held.err != nil {
		t.Fatal(held.err)
	}
	if revoked, err := m.FailLink(0, 0, held.h.Ports()[0], faults.Up); err != nil || revoked != 1 {
		t.Fatalf("FailLink = %d, %v", revoked, err)
	}
	runEpoch(t, m, m.getTicket(1, 5), m.getTicket(2, 6)) // the repair ticket rides along
	raw, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var live map[string]json.RawMessage
	if err := json.Unmarshal(raw, &live); err != nil {
		t.Fatal(err)
	}
	checkKeys := func(what string, got map[string]json.RawMessage, want []string) {
		t.Helper()
		allowed := make(map[string]bool)
		for _, tag := range want {
			key, optional := strings.CutSuffix(tag, ",omitempty")
			allowed[key] = true
			if _, present := got[key]; !present && !optional {
				t.Errorf("%s: key %q is missing", what, key)
			}
		}
		for key := range got {
			if !allowed[key] {
				t.Errorf("%s: unexpected key %q", what, key)
			}
		}
	}
	checkKeys("stats", live, wantStats)
	for _, key := range []string{"epoch_size", "epoch_latency_ms", "route_churn", "repair_latency_ms", "repair_depth"} {
		var d map[string]json.RawMessage
		if err := json.Unmarshal(live[key], &d); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		checkKeys(key, d, wantDist)
	}
	var size Dist
	if err := json.Unmarshal(live["epoch_size"], &size); err != nil {
		t.Fatal(err)
	}
	// Epochs of one ticket and of three (two clients and the repair).
	if want := (Dist{N: 2, Mean: 2, Min: 1, Max: 3, StdDev: size.StdDev, P50: 1, P95: 3, P99: 3, Hist: []int{1, 0, 0, 0, 0, 0, 0, 1}}); !reflect.DeepEqual(size, want) {
		t.Errorf("epoch_size = %+v, want %+v", size, want)
	}
	var depth Dist
	if err := json.Unmarshal(live["repair_depth"], &depth); err != nil {
		t.Fatal(err)
	}
	if want := (Dist{N: 1, Mean: 1, Min: 1, Max: 1, P50: 1, P95: 1, P99: 1}); !reflect.DeepEqual(depth, want) {
		t.Errorf("repair_depth = %+v, want %+v", depth, want)
	}
}
