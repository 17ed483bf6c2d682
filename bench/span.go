package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the harness around each call into a layer's public
// function; spans inside the program under test are a later issue. One
// loop iteration of a client is one request: a root span (the generator's
// own loop body) with up to two children, the calls it made. They are kept
// as fixed-size records in a per-client ring allocated before the run, so
// tracing costs the same from the first request to the last and never
// allocates; the ring keeps the newest records and is expanded to
// (name, start, end, parent, req) spans when the run ends.

// span is one interval at a layer boundary. Times are ns since the trace
// began; Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// iterRec is one traced loop iteration: the iteration itself and its two
// optional calls (a[0] == a[1] means the call was not made).
type iterRec struct {
	req        uint64
	start, end int64
	a, b       [2]int64
}

const traceRing = 1024 // iterations kept per client

type tracer struct {
	t0    time.Time
	names [3]string // root, first call, second call
	rings [][]iterRec
	count []uint64 // iterations traced per client, kept or overwritten
}

func newTracer(clients int, names [3]string) *tracer {
	t := &tracer{t0: time.Now(), names: names,
		rings: make([][]iterRec, clients), count: make([]uint64, clients)}
	for i := range t.rings {
		t.rings[i] = make([]iterRec, traceRing)
	}
	return t
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records one iteration of client c.
func (t *tracer) add(c int, r iterRec) {
	r.req = t.count[c]
	t.rings[c][t.count[c]%traceRing] = r
	t.count[c]++
}

// traced is the total number of iterations recorded (the count taken at the
// same boundary as the spans).
func (t *tracer) traced() uint64 {
	var n uint64
	for _, c := range t.count {
		n += c
	}
	return n
}

// spans expands the kept records, oldest first per client.
func (t *tracer) spans() []span {
	var out []span
	for c, ring := range t.rings {
		n := t.count[c]
		first := uint64(0)
		if n > traceRing {
			first = n - traceRing
		}
		for i := first; i < n; i++ {
			r := &ring[i%traceRing]
			req := uint64(c)<<40 | r.req
			root := req<<2 | 1
			out = append(out, span{ID: root, Req: req, Name: t.names[0], Start: r.start, End: r.end})
			if r.a[0] != r.a[1] {
				out = append(out, span{ID: req<<2 | 2, Parent: root, Req: req, Name: t.names[1], Start: r.a[0], End: r.a[1]})
			}
			if r.b[0] != r.b[1] {
				out = append(out, span{ID: req<<2 | 3, Parent: root, Req: req, Name: t.names[2], Start: r.b[0], End: r.b[1]})
			}
		}
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total int64 // summed duration, ns
	Self  int64 // summed duration not covered by child spans, ns
}

// selfTimes computes, per span name, the total and self time: a span's
// self time is its duration minus the part of its interval its children
// cover (overlapping children are not counted twice; a child reaching
// outside its parent only counts for the part inside).
func selfTimes(spans []span) []spanStat {
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*spanStat)
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		at := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, at), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		st.Count++
		st.Total += dur
		st.Self += dur - covered
	}
	out := make([]spanStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// writeTrace writes the spans and the counts taken at the same boundaries.
func writeTrace(path string, workload string, t *tracer, counts map[string]uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Traced   uint64            `json:"traced_iterations"`
		Counts   map[string]uint64 `json:"counts"`
		Spans    []span            `json:"spans"`
	}{workload, t.traced(), counts, t.spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
