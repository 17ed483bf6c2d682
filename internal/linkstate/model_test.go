package linkstate

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/topology"
)

// chanState is one channel of boolModel: free, held by an allocation, or
// failed (out of service; a held channel that fails is forfeited).
type chanState uint8

const (
	free chanState = iota
	held
	dead
)

// boolModel is the plain reference TestStateMatchesBoolModel holds a State
// to: one enum per channel, no words, no masks, no counters.
type boolModel struct {
	tree  *topology.Tree
	ch    [2][][][]chanState // [direction][level][switch][port]
	track bool
}

func newBoolModel(tree *topology.Tree, track bool) *boolModel {
	m := &boolModel{tree: tree, track: track}
	for d := range m.ch {
		m.ch[d] = make([][][]chanState, tree.LinkLevels())
		for h := range m.ch[d] {
			m.ch[d][h] = make([][]chanState, tree.SwitchesAt(h))
			for idx := range m.ch[d][h] {
				m.ch[d][h][idx] = make([]chanState, tree.Parents())
			}
		}
	}
	return m
}

func (m *boolModel) at(d Direction, h, idx, p int) *chanState { return &m.ch[d][h][idx][p] }

func (m *boolModel) clone() *boolModel {
	c := newBoolModel(m.tree, m.track)
	for d := range m.ch {
		for h := range m.ch[d] {
			for idx := range m.ch[d][h] {
				copy(c.ch[d][h][idx], m.ch[d][h][idx])
			}
		}
	}
	return c
}

// count returns how many channels at level h (every level when h < 0)
// are in state want, per direction.
func (m *boolModel) count(h int, want chanState) (up, down int) {
	var n [2]int
	for d := range m.ch {
		for lvl := range m.ch[d] {
			if h >= 0 && lvl != h {
				continue
			}
			for _, row := range m.ch[d][lvl] {
				for _, c := range row {
					if c == want {
						n[d]++
					}
				}
			}
		}
	}
	return n[0], n[1]
}

// allocate is Allocate's verdict: "" on success, else the diagnosis the
// refusal must carry.
func (m *boolModel) allocate(d Direction, h, idx, p int) string {
	switch c := m.at(d, h, idx, p); *c {
	case dead:
		return "is failed"
	case held:
		return "already occupied"
	default:
		*c = held
		return ""
	}
}

// release is Release's verdict.
func (m *boolModel) release(d Direction, h, idx, p int) string {
	switch c := m.at(d, h, idx, p); *c {
	case dead:
		return "is failed"
	case free:
		return "not occupied"
	default:
		*c = free
		return ""
	}
}

// releaseHeld frees every held channel of the walk and reports the first
// channel it could not free.
func (m *boolModel) releaseHeld(src, dst int, ports []int) string {
	var cur topology.RouteCursor
	cur.Start(m.tree, src, dst)
	verdict := ""
	cur.Walk(ports, func(h, sigma, delta, p int) {
		if v := m.release(Up, h, sigma, p); verdict == "" {
			verdict = v
		}
		if v := m.release(Down, h, delta, p); verdict == "" {
			verdict = v
		}
	})
	return verdict
}

// allocatePath claims the route's channels, or none of them.
func (m *boolModel) allocatePath(src, dst int, ports []int) string {
	if len(ports) != m.tree.AncestorLevel(src, dst) {
		return "needs"
	}
	before := m.clone()
	var cur topology.RouteCursor
	cur.Start(m.tree, src, dst)
	verdict := ""
	cur.Walk(ports, func(h, sigma, delta, p int) {
		if verdict == "" {
			verdict = m.allocate(Up, h, sigma, p)
		}
		if verdict == "" {
			verdict = m.allocate(Down, h, delta, p)
		}
	})
	if verdict != "" {
		m.ch = before.ch
	}
	return verdict
}

// check compares every read of s with the model.
func (m *boolModel) check(t *testing.T, s *State, rng *rand.Rand, step string) {
	t.Helper()
	tree, w := m.tree, m.tree.Parents()
	for h := 0; h < tree.LinkLevels(); h++ {
		n := tree.SwitchesAt(h)
		for idx := 0; idx < n; idx++ {
			for d := Up; d <= Down; d++ {
				for p := 0; p < w; p++ {
					c := *m.at(d, h, idx, p)
					if got := s.Available(d, h, idx, p); got != (c == free) {
						t.Fatalf("%s: Available(%s,%d,%d,%d) = %v, model %d", step, d, h, idx, p, got, c)
					}
					if got := s.Failed(d, h, idx, p); got != (c == dead) {
						t.Fatalf("%s: Failed(%s,%d,%d,%d) = %v, model %d", step, d, h, idx, p, got, c)
					}
				}
			}
			mir := rng.Intn(n)
			var want uint64
			for p := 0; p < w; p++ {
				if *m.at(Up, h, idx, p) == free && *m.at(Down, h, mir, p) == free {
					want |= 1 << uint(p)
				}
			}
			if got := s.AvailBothWord(h, idx, mir); got != want {
				t.Fatalf("%s: AvailBothWord(%d,%d,%d) = %#x, model %#x", step, h, idx, mir, got, want)
			}
		}
		// LevelOccupancy counts a failed channel with the held ones: every
		// channel whose availability bit is clear.
		up, down := m.count(h, held)
		fu, fd := m.count(h, dead)
		up, down = up+fu, down+fd
		if gu, gd := s.LevelOccupancy(h); gu != up || gd != down {
			t.Fatalf("%s: LevelOccupancy(%d) = %d,%d, model %d,%d", step, h, gu, gd, up, down)
		}
	}
	hu, hd := m.count(-1, held)
	fu, fd := m.count(-1, dead)
	if got := s.OccupiedCount(); got != hu+hd {
		t.Fatalf("%s: OccupiedCount = %d, model %d", step, got, hu+hd)
	}
	if got := s.FailedCount(); got != fu+fd {
		t.Fatalf("%s: FailedCount = %d, model %d", step, got, fu+fd)
	}
	live := 0
	if m.track {
		live = hu + hd
	}
	if got := s.LiveOccupancy(); got != int64(live) {
		t.Fatalf("%s: LiveOccupancy = %d, model %d", step, got, live)
	}
	if got := s.Unavailable(); got != int64(live+fu+fd) {
		t.Fatalf("%s: Unavailable = %d, model %d", step, got, live+fu+fd)
	}
}

// sameVerdictErr checks an error against the model's verdict: nil for "",
// else an error naming the same diagnosis.
func sameVerdictErr(t *testing.T, step string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Fatalf("%s: unexpected error %v", step, err)
	case want != "" && err == nil:
		t.Fatalf("%s: succeeded, model refuses (%s)", step, want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Fatalf("%s: error %q, model says %q", step, err, want)
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestStateMatchesBoolModel runs seeded random operation sequences on a
// State and on boolModel alike — single-channel allocation and release
// (plain and atomic), faults and repairs, Reset, whole and partial routes,
// snapshots — and after every step compares each read the State offers
// with the model, and each error or panic with the model's verdict. It runs
// untracked and load-tracked states, on trees whose rows are a few bits
// and on one whose rows are the whole 64-bit word.
func TestStateMatchesBoolModel(t *testing.T) {
	for _, tc := range []struct {
		l, m, w, steps int
	}{
		{2, 4, 4, 600},
		{3, 4, 4, 600},
		{3, 8, 8, 400},
		{2, 64, 64, 150},
	} {
		for _, track := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("FT%dx%dx%d/track=%v/seed%d", tc.l, tc.m, tc.w, track, seed)
				t.Run(name, func(t *testing.T) {
					runBoolModel(t, topology.MustNew(tc.l, tc.m, tc.w), track, seed, tc.steps)
				})
			}
		}
	}
}

func runBoolModel(t *testing.T, tree *topology.Tree, track bool, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s := New(tree)
	if track {
		s.TrackLoad()
	}
	m := newBoolModel(tree, track)
	w := tree.Parents()
	var routes []heldRoute // granted routes, released later
	var snap *Snapshot
	var snapModel *boolModel

	channel := func() (Direction, int, int, int) {
		h := rng.Intn(tree.LinkLevels())
		return Direction(rng.Intn(2)), h, rng.Intn(tree.SwitchesAt(h)), rng.Intn(w)
	}
	route := func() heldRoute {
		r := heldRoute{src: rng.Intn(tree.Nodes()), dst: rng.Intn(tree.Nodes())}
		r.ports = make([]int, tree.AncestorLevel(r.src, r.dst))
		for h := range r.ports {
			r.ports[h] = rng.Intn(w)
		}
		return r
	}
	badPort := func() int {
		if rng.Intn(2) == 0 {
			return -1
		}
		return w
	}

	m.check(t, s, rng, "fresh")
	for i := 0; i < steps; i++ {
		var step string
		switch op := rng.Intn(16); op {
		case 0, 1:
			d, h, idx, p := channel()
			step = fmt.Sprintf("step %d Allocate(%s,%d,%d,%d)", i, d, h, idx, p)
			sameVerdictErr(t, step, s.Allocate(d, h, idx, p), m.allocate(d, h, idx, p))
		case 2, 3:
			d, h, idx, p := channel()
			step = fmt.Sprintf("step %d Release(%s,%d,%d,%d)", i, d, h, idx, p)
			sameVerdictErr(t, step, s.Release(d, h, idx, p), m.release(d, h, idx, p))
		case 4:
			d, h, idx, p := channel()
			step = fmt.Sprintf("step %d TryAllocate(%s,%d,%d,%d)", i, d, h, idx, p)
			if got, want := s.TryAllocate(d, h, idx, p), m.allocate(d, h, idx, p) == ""; got != want {
				t.Fatalf("%s = %v, model %v", step, got, want)
			}
		case 5:
			d, h, idx, p := channel()
			step = fmt.Sprintf("step %d AtomicRelease(%s,%d,%d,%d)", i, d, h, idx, p)
			c := m.at(d, h, idx, p)
			if *c == dead {
				// Atomic releases return only channels their caller claimed;
				// a failed channel was never one of them.
				continue
			}
			if got, want := panics(func() { s.AtomicRelease(d, h, idx, p) }), *c == free; got != want {
				t.Fatalf("%s: panicked %v, model %v", step, got, want)
			}
			*c = free
		case 6:
			d, h, idx, p := channel()
			step = fmt.Sprintf("step %d FailLink(%s,%d,%d,%d)", i, d, h, idx, p)
			c := m.at(d, h, idx, p)
			if got, want := s.FailLink(d, h, idx, p), *c != held; got != want {
				t.Fatalf("%s = %v, model %v", step, got, want)
			}
			if *c != dead {
				*c, snap = dead, nil // a restore would not bring the old mask back
			}
		case 7:
			d, h, idx, p := channel()
			step = fmt.Sprintf("step %d RepairLink(%s,%d,%d,%d)", i, d, h, idx, p)
			c := m.at(d, h, idx, p)
			if got, want := s.RepairLink(d, h, idx, p), *c == dead; got != want {
				t.Fatalf("%s = %v, model %v", step, got, want)
			}
			if *c == dead {
				*c, snap = free, nil
			}
		case 8:
			if rng.Intn(4) != 0 {
				continue // rarer than the rest: it empties the state
			}
			step = fmt.Sprintf("step %d Reset", i)
			s.Reset()
			for d := range m.ch {
				for h := range m.ch[d] {
					for _, row := range m.ch[d][h] {
						for p, c := range row {
							if c == held {
								row[p] = free
							}
						}
					}
				}
			}
			routes = routes[:0]
		case 9, 10:
			r := route()
			if rng.Intn(8) == 0 && len(r.ports) > 0 {
				r.ports = r.ports[1:] // a wrong port count
			}
			step = fmt.Sprintf("step %d AllocatePath(%d,%d,%v)", i, r.src, r.dst, r.ports)
			want := m.allocatePath(r.src, r.dst, r.ports)
			sameVerdictErr(t, step, s.AllocatePath(r.src, r.dst, r.ports), want)
			if want == "" {
				routes = append(routes, r)
			}
		case 11, 12:
			r := route()
			if len(routes) > 0 && rng.Intn(4) != 0 {
				k := rng.Intn(len(routes))
				r = routes[k]
				routes = append(routes[:k], routes[k+1:]...)
			}
			if rng.Intn(8) == 0 && len(r.ports) > 0 {
				r.ports = r.ports[1:]
			}
			step = fmt.Sprintf("step %d ReleasePath(%d,%d,%v)", i, r.src, r.dst, r.ports)
			want := "needs"
			if len(r.ports) == tree.AncestorLevel(r.src, r.dst) {
				want = m.releaseHeld(r.src, r.dst, r.ports)
			}
			sameVerdictErr(t, step, s.ReleasePath(r.src, r.dst, r.ports), want)
		case 13:
			r := route()
			r.ports = r.ports[:rng.Intn(len(r.ports)+1)] // any prefix of a climb
			step = fmt.Sprintf("step %d ReleaseHeld(%d,%d,%v)", i, r.src, r.dst, r.ports)
			sameVerdictErr(t, step, s.ReleaseHeld(r.src, r.dst, r.ports), m.releaseHeld(r.src, r.dst, r.ports))
		case 14:
			if snap == nil || rng.Intn(2) == 0 {
				step = fmt.Sprintf("step %d Snapshot", i)
				sn := s.Snapshot()
				snap, snapModel = &sn, m.clone()
			} else {
				step = fmt.Sprintf("step %d Restore", i)
				s.Restore(*snap)
				m.ch = snapModel.clone().ch
				routes = routes[:0]
			}
		case 15:
			// Out-of-range ports panic, and before anything changes.
			d, h, idx, _ := channel()
			p := badPort()
			step = fmt.Sprintf("step %d port %d out of range", i, p)
			for name, f := range map[string]func(){
				"Allocate":      func() { s.Allocate(d, h, idx, p) },
				"Release":       func() { s.Release(d, h, idx, p) },
				"Available":     func() { s.Available(d, h, idx, p) },
				"TryAllocate":   func() { s.TryAllocate(d, h, idx, p) },
				"AtomicRelease": func() { s.AtomicRelease(d, h, idx, p) },
				"FailLink":      func() { s.FailLink(d, h, idx, p) },
			} {
				if !panics(f) {
					t.Fatalf("%s: %s did not panic", step, name)
				}
			}
		}
		m.check(t, s, rng, step)
	}
}
