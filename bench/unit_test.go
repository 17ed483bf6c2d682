package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
)

// A reported percentile must be within 1 % of the sample it stands for.
func TestHistPercentileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]float64, 200000)
	for i := range vals {
		// Log-uniform over 50 ns .. 50 ms: the range the benchmark records.
		v := math.Exp(math.Log(50) + rng.Float64()*math.Log(1e6))
		vals[i] = math.Floor(v)
		h.record(int64(vals[i]))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q%.3f: histogram %.1f, exact %.1f, error %.2f %%", q, got, exact, 100*rel)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<36 - 1, 1 << 40} {
		b := histBucket(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("histBucket(%d) = %d, out of range", v, b)
		}
		if v < 1<<histMaxBits {
			if rel := math.Abs(histValue(b)-float64(v)) / math.Max(float64(v), 1); rel > 0.005 {
				t.Errorf("value %d lands in a bucket worth %.1f", v, histValue(b))
			}
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merging a histogram with itself changed its median")
	}
}

func TestBestDecile(t *testing.T) {
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = float64((i*7)%30 + 1) // 1..30 shuffled
	}
	if got := bestDecile(vals, false); got != 3 {
		t.Errorf("10th-percentile slice of 30 = %v, want the third smallest (3)", got)
	}
	if got := bestDecile(vals, true); got != 28 {
		t.Errorf("90th-percentile slice of 30 = %v, want the third largest (28)", got)
	}
	if got := bestDecile(vals[:20], false); got != sorted(vals[:20])[1] {
		t.Errorf("10th-percentile slice of 20 = %v, want the second smallest", got)
	}
	if got := bestDecile([]float64{5}, true); got != 5 {
		t.Errorf("one slice: got %v", got)
	}
	if got := bestDecile(nil, true); got != 0 {
		t.Errorf("no slices: got %v", got)
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// The slice estimator on synthetic completion times: operations land in the
// slice they complete in, a glitched slice does not move the reported
// values, late completions are counted but never timed.
func TestWindowEstimator(t *testing.T) {
	w := newWindow(20)
	w.beginRound(10)
	base := w.start
	feed := func(r *recorder, off int) {
		for s := 0; s < 10; s++ {
			n, lat := 1000, 100*time.Microsecond
			if s == 4 { // a neighbour stole this second
				n, lat = 400, 300*time.Microsecond
			}
			for i := 0; i < n; i++ {
				end := base.Add(time.Duration(s)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1))
				if got := r.op(end, lat, 1, uint64(i%2)); got != off+s {
					t.Fatalf("completion in second %d recorded in slice %d", s, got)
				}
			}
		}
	}
	var r recorder
	r.attach(w)
	feed(&r, 0)
	r.op(base.Add(10*time.Second+time.Millisecond), time.Second, 1, 1) // after the deadline
	r.fail(base.Add(2 * time.Second))
	r.flush()
	w.beginRound(10)
	base = w.start
	r.attach(w)
	feed(&r, 10)
	r.flush()

	e := w.reduce(nil, 0.99)
	if e.slices != 20 || e.reqPerS != 1000 || e.reqPerSMed != 1000 {
		t.Errorf("slices %d, req/s %v (median %v); want 20 slices at 1000", e.slices, e.reqPerS, e.reqPerSMed)
	}
	if math.Abs(e.p50us-100) > 1 || math.Abs(e.tailus-100) > 1 {
		t.Errorf("p50 %v us, p99 %v us; want 100: the glitched slice must not show", e.p50us, e.tailus)
	}
	if e.ops != 2*(9*1000+400)+1 || e.failed != 1 || e.minSliceOps != 400 {
		t.Errorf("ops %d failed %d min slice %d", e.ops, e.failed, e.minSliceOps)
	}
	odd := w.reduce(func(i int) bool { return i&1 == 1 }, 0.99)
	if odd.slices != 10 || odd.ops != e.ops {
		t.Errorf("filtered reduce: %d slices, %d ops; counts must stay whole-window", odd.slices, odd.ops)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iter", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "release", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "connect", Start: 20, End: 50},  // overlaps release: not counted twice
		{ID: 4, Parent: 1, Name: "connect", Start: 90, End: 120}, // reaches past the parent: only 90..100 counts
		{ID: 5, Parent: 3, Name: "epoch", Start: 25, End: 45},
		{ID: 6, Name: "iter", Start: 200, End: 260}, // no children: all self
	}
	got := map[string]spanStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	want := map[string]spanStat{
		"iter":    {Name: "iter", Count: 2, Total: 160, Self: 110},
		"release": {Name: "release", Count: 1, Total: 20, Self: 20},
		"connect": {Name: "connect", Count: 2, Total: 60, Self: 40},
		"epoch":   {Name: "epoch", Count: 1, Total: 20, Self: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times:\n got %+v\nwant %+v", got, want)
	}
}

// The ring keeps the newest iterations whole: a root never loses its
// children to the wrap.
func TestTracerRing(t *testing.T) {
	tr := newTracer(1, [3]string{"iter", "release", "connect"})
	for i := 0; i < traceRing+10; i++ {
		at := int64(i * 100)
		tr.add(0, iterRec{start: at, end: at + 90, a: [2]int64{at + 1, at + 11}, b: [2]int64{at + 20, at + 80}})
	}
	spans := tr.spans()
	if tr.traced() != traceRing+10 || len(spans) != 3*traceRing {
		t.Fatalf("traced %d, kept %d spans; want %d and %d", tr.traced(), len(spans), traceRing+10, 3*traceRing)
	}
	for _, s := range selfTimes(spans) {
		if s.Name == "iter" && (s.Count != traceRing || s.Self != 20*traceRing) {
			t.Errorf("iter: %+v; want self 20 per iteration", s)
		}
	}
	if spans[0].Start != 10*100 {
		t.Errorf("oldest kept span starts at %d, want %d", spans[0].Start, 10*100)
	}
}

// The seed decides the request stream and nothing else: fixed streams for
// seed 1, another stream for seed 2. The three serving workloads draw from
// the same per-client generator.
func TestGoldenStreams(t *testing.T) {
	wantBatch := []core.Request{{Src: 0, Dst: 1786}, {Src: 1, Dst: 2932}, {Src: 2, Dst: 2233}, {Src: 3, Dst: 355},
		{Src: 4, Dst: 108}, {Src: 5, Dst: 178}, {Src: 6, Dst: 3511}, {Src: 7, Dst: 4064}}
	if got := batchInputs(1)[0][:8]; !reflect.DeepEqual(got, wantBatch) {
		t.Errorf("batch_perm seed 1: %v", got)
	}
	if got := batchInputs(2)[0][:8]; reflect.DeepEqual(got, wantBatch) {
		t.Errorf("batch_perm seed 2 repeats seed 1's stream")
	}
	if perms := batchInputs(1); len(perms) != batchPerms || len(perms[0]) != 4096 {
		t.Errorf("batch_perm: %d permutations of %d", len(perms), len(perms[0]))
	}
	first8 := func(seed int64, c int) [][2]int {
		rng := clientRNG(seed, c)
		var out [][2]int
		for i := 0; i < 8; i++ {
			s, d := nextPair(rng, newServingTree().Nodes())
			if s == d {
				t.Fatalf("nextPair drew src == dst == %d", s)
			}
			out = append(out, [2]int{s, d})
		}
		return out
	}
	wantServing := [][2]int{{437, 385}, {96, 208}, {100, 53}, {301, 121}, {252, 401}, {479, 475}, {38, 146}, {438, 363}}
	if got := first8(1, 0); !reflect.DeepEqual(got, wantServing) {
		t.Errorf("serving client 0 seed 1: %v", got)
	}
	if reflect.DeepEqual(first8(2, 0), wantServing) || reflect.DeepEqual(first8(1, 1), wantServing) {
		t.Errorf("another seed or another client repeats client 0's seed-1 stream")
	}
}

// One client can never fill a BatchSize-16 epoch: every request waits out
// the timer, which is the trap the guard exists for. No timing is asserted:
// epochs of one request are a fact of the configuration.
func TestTimerBoundGuard(t *testing.T) {
	spec := fabricChurnSpec()
	m, err := fabric.New(fabric.Config{Tree: newServingTree(), BatchSize: spec.batch, MaxWait: spec.maxWait})
	if err != nil {
		t.Fatal(err)
	}
	rng := clientRNG(1, 0)
	for i := 0; i < 64; i++ {
		src, dst := nextPair(rng, newServingTree().Nodes())
		h, err := m.Connect(context.Background(), src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	msg := timerBound([]fabric.Stats{st}, spec.batch, spec.maxWait)
	if !strings.Contains(msg, "mean epoch size") {
		t.Errorf("under-driven fabric (mean epoch size %.2f) passed the guard: %q", st.EpochSize.Mean, msg)
	}

	healthy := fabric.Stats{}
	healthy.EpochSize.N, healthy.EpochSize.Mean = 100, 15
	healthy.EpochLatencyMS.P50 = 0.03
	if msg := timerBound([]fabric.Stats{healthy}, 16, 200*time.Microsecond); msg != "" {
		t.Errorf("well-driven fabric tripped the guard: %s", msg)
	}
	slow := healthy
	slow.EpochLatencyMS.P50 = 0.15
	if msg := timerBound([]fabric.Stats{slow}, 16, 200*time.Microsecond); !strings.Contains(msg, "epoch latency") {
		t.Errorf("timer-paced fabric passed the guard: %q", msg)
	}
	if msg := timerBound(nil, 16, time.Millisecond); msg == "" {
		t.Errorf("no epochs at all passed the guard")
	}
}

func TestParseConnect(t *testing.T) {
	id, ports, err := parseConnect([]byte(`{"id":17,"src":0,"dst":37,"ports":[2,0,1],"plane":"plane0"}` + "\n"))
	if err != nil || id != 17 || !reflect.DeepEqual(ports, []int{2, 0, 1}) {
		t.Errorf("got id %d ports %v err %v", id, ports, err)
	}
	id, ports, err = parseConnect([]byte(`{"id":3,"src":8,"dst":9,"ports":null,"plane":"plane0"}`))
	if err != nil || id != 3 || len(ports) != 0 {
		t.Errorf("same-switch circuit: id %d ports %v err %v", id, ports, err)
	}
	for _, bad := range []string{`{}`, `{"id":1}`, `{"id":1,"ports":[1,x]}`, `{"id":1,"ports":[1,2`} {
		if _, _, err := parseConnect([]byte(bad)); err == nil {
			t.Errorf("parseConnect(%q) did not fail", bad)
		}
	}
}

// Quartiles as Python's statistics.quantiles(v, n=4) gives them, which is
// how the acceptance rule defines spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30})
	if q1 != 5 || q3 != 35 { // on two points Python extrapolates: [5.0, 20.0, 35.0]
		t.Errorf("quartiles(10, 30) = %v, %v; Python gives 5, 35", q1, q3)
	}
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3, 1, 2) = %v, %v; Python gives 1, 3", q1, q3)
	}
	if s := spread([]float64{100, 100, 100}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
}

func TestCheckFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	must(t, os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"req_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"connect_p50_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644))
	write := func(name string, rate, p50 []float64) string {
		path := filepath.Join(dir, name)
		for _, wl := range workloadNames {
			for i := range rate {
				rec := &record{Workload: wl, Seed: 1, Correct: true, Attempted: 10, Metrics: map[string]metric{
					"req_per_s": {rate[i], "1/s"}, "connect_p50_us": {p50[i], "us"}}}
				must(t, appendRecord(path, rec))
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 102}, []float64{50, 50.5, 51})
	same := write("b.jsonl", []float64{99, 100, 103}, []float64{52, 51, 50})
	slower := write("c.jsonl", []float64{80, 81, 82}, []float64{50, 51, 52})
	noisy := write("d.jsonl", []float64{70, 100, 130}, []float64{50, 51, 52})

	var out bytes.Buffer
	if ok, err := checkFiles(&out, bench, base, same); err != nil || !ok {
		t.Errorf("equal runs did not pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if ok, _ := checkFiles(&out, bench, base, slower); ok || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a 20 %% slower run passed a 10 %% bound:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := checkFiles(&out, bench, base, noisy); !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not fail:\n%s", out.String())
	}
	bad := filepath.Join(dir, "e.jsonl")
	must(t, appendRecord(bad, &record{Workload: "batch_perm", Correct: false, Failed: 2, Metrics: map[string]metric{}}))
	if ok, _ := checkFiles(&out, bench, base, bad); ok {
		t.Errorf("a file with failed runs and missing workloads passed")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json and the program must name the same things.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	must(t, err)
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	must(t, dec.Decode(&bf))

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	wantE2E := map[string]string{"setup_s": "s", "req_per_s": "1/s", "connect_p50_us": "us",
		"connect_p99_us": "us", "grant_ratio": "ratio", "mem_mb": "MB"}
	if len(bf.EndToEnd) != len(wantE2E) {
		t.Errorf("%d end-to-end metrics declared, the program emits %d", len(bf.EndToEnd), len(wantE2E))
	}
	for _, m := range bf.EndToEnd {
		if wantE2E[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q, the program emits %q", m.Name, m.Unit, wantE2E[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Errorf("%d per-layer metrics declared, the program emits %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayerMetrics) {
			if d := perLayerMetrics[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("per-layer #%d: declared %+v, the program has %+v", i, m, d)
			}
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}
