package linkstate

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// releaseByChannel is the reference ReleasePath is held to: the walk it
// was before it had a word form, one Release per channel through the
// Vector API, first error kept, everything else still released.
func releaseByChannel(s *State, src, dst int, ports []int) error {
	if h := s.tree.AncestorLevel(src, dst); len(ports) != h {
		return fmt.Errorf("linkstate: request (%d→%d) needs %d ports, got %d", src, dst, h, len(ports))
	}
	return releaseHeldByChannel(s, src, dst, ports)
}

// releaseHeldByChannel is the same reference for ReleaseHeld, which takes
// any prefix of a route.
func releaseHeldByChannel(s *State, src, dst int, ports []int) error {
	var cur topology.RouteCursor
	cur.Start(s.tree, src, dst)
	var firstErr error
	cur.Walk(ports, func(lvl, sigma, delta, p int) {
		if err := s.Release(Up, lvl, sigma, p); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.Release(Down, lvl, delta, p); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

type heldRoute struct {
	src, dst int
	ports    []int
}

// randomRoutes allocates up to n random routes with random ports on every
// given state alike and returns the ones that fit.
func randomRoutes(t *testing.T, rng *rand.Rand, n int, states ...*State) []heldRoute {
	t.Helper()
	tree := states[0].tree
	var held []heldRoute
	for i := 0; i < n; i++ {
		r := heldRoute{src: rng.Intn(tree.Nodes()), dst: rng.Intn(tree.Nodes())}
		r.ports = make([]int, tree.AncestorLevel(r.src, r.dst))
		for h := range r.ports {
			r.ports[h] = rng.Intn(tree.Parents())
		}
		err := states[0].AllocatePath(r.src, r.dst, r.ports)
		for _, s := range states[1:] {
			if other := s.AllocatePath(r.src, r.dst, r.ports); (other == nil) != (err == nil) {
				t.Fatalf("identically prepared states disagree on %+v: %v vs %v", r, err, other)
			}
		}
		if err == nil {
			held = append(held, r)
		}
	}
	return held
}

// sameRelease releases r on word through ReleasePath and on ref through
// the reference walk, and fails unless the verdicts, the availability
// bits, the gauge and the counters all agree.
func sameRelease(t *testing.T, label string, word, ref *State, r heldRoute) error {
	t.Helper()
	return sameVerdict(t, label, word, ref, r,
		word.ReleasePath(r.src, r.dst, r.ports), releaseByChannel(ref, r.src, r.dst, r.ports))
}

// sameHeldRelease is sameRelease for ReleaseHeld over a prefix of a route.
func sameHeldRelease(t *testing.T, label string, word, ref *State, r heldRoute) error {
	t.Helper()
	return sameVerdict(t, label, word, ref, r,
		word.ReleaseHeld(r.src, r.dst, r.ports), releaseHeldByChannel(ref, r.src, r.dst, r.ports))
}

func sameVerdict(t *testing.T, label string, word, ref *State, r heldRoute, got, want error) error {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: release of %+v = %v, the per-channel walk says %v", label, r, got, want)
	}
	if !word.Equal(ref) {
		t.Fatalf("%s: link state diverges from the per-channel walk after releasing %+v", label, r)
	}
	if g, w := word.LiveOccupancy(), ref.LiveOccupancy(); g != w {
		t.Fatalf("%s: gauge %d after releasing %+v, the per-channel walk has %d", label, g, r, w)
	}
	if word.LoadTracking() {
		if g, w := word.LiveOccupancy(), int64(word.OccupiedCount()); g != w {
			t.Fatalf("%s: gauge %d, OccupiedCount %d after releasing %+v", label, g, w, r)
		}
	}
	gu, gd := word.LoadSnapshot()
	wu, wd := ref.LoadSnapshot()
	if !reflect.DeepEqual(gu, wu) || !reflect.DeepEqual(gd, wd) {
		t.Fatalf("%s: a release moved the cumulative counters", label)
	}
	return got
}

// TestReleasePathWordFormMatchesChannelWalk holds ReleasePath's word form
// to the per-channel walk over the tree forms the word kernel's own oracle
// covers (core's wordVsVector), tracked and untracked: plain releases, a
// second release of the same route, a route with one channel already free
// (an error, and every other channel still returned), a wrong port count,
// and then the same word form on a state with failed channels in both
// directions: clean routes, routes naming a failed channel (refused there
// and nowhere else, the fault not resurrected), and the prefix releases a
// denied request's rollback makes, clean and across a fault.
func TestReleasePathWordFormMatchesChannelWalk(t *testing.T) {
	type shape struct {
		l, m, w int
		arith   bool
	}
	shapes := []shape{
		{3, 8, 8, false}, {3, 4, 4, false}, {3, 4, 2, false}, {2, 6, 3, false},
		{3, 6, 3, false}, {3, 4, 6, false}, {3, 4, 4, true}, {3, 6, 3, true},
	}
	for _, sh := range shapes {
		tree := topology.MustNew(sh.l, sh.m, sh.w)
		if sh.arith {
			tree = tree.WithArithmeticCursor()
		}
		for _, tracked := range []bool{false, true} {
			label := fmt.Sprintf("FT(%d,%d,%d) arith=%v tracked=%v", sh.l, sh.m, sh.w, sh.arith, tracked)
			word, ref := New(tree), New(tree)
			if !word.WordRows() {
				t.Fatalf("%s: expected single-word rows", label)
			}
			if tracked {
				word.TrackLoad()
				ref.TrackLoad()
			}
			rng := rand.New(rand.NewSource(41))
			held := randomRoutes(t, rng, 4*tree.Nodes(), word, ref)
			if len(held) < 4 {
				t.Fatalf("%s: only %d routes fit", label, len(held))
			}

			// Wrong port count: refused whole, nothing touched.
			long := heldRoute{held[0].src, held[0].dst, append([]int{0}, held[0].ports...)}
			if err := sameRelease(t, label, word, ref, long); err == nil {
				t.Fatalf("%s: a route one port too long was released", label)
			}

			// One channel of a route already free: the walk reports it and
			// still returns every other channel of the route.
			var partial heldRoute
			for _, r := range held {
				if len(r.ports) > 0 {
					partial = r
					break
				}
			}
			var cur topology.RouteCursor
			cur.Start(tree, partial.src, partial.dst)
			for _, s := range []*State{word, ref} {
				if err := s.Release(Down, 0, cur.Delta(), partial.ports[0]); err != nil {
					t.Fatal(err)
				}
			}
			err := sameRelease(t, label+" one channel free", word, ref, partial)
			if err == nil || !strings.Contains(err.Error(), "not occupied") {
				t.Fatalf("%s: releasing a route with a free channel = %v, want a not-occupied error", label, err)
			}
			cur.Walk(partial.ports, func(lvl, sigma, delta, p int) {
				if !word.Available(Up, lvl, sigma, p) || !word.Available(Down, lvl, delta, p) {
					t.Fatalf("%s: level %d of the route was not returned after the error", label, lvl)
				}
			})

			// Half of the rest, released once and then again.
			for i, r := range held {
				if i%2 == 1 || reflect.DeepEqual(r, partial) {
					continue
				}
				if err := sameRelease(t, label, word, ref, r); err != nil {
					t.Fatalf("%s: release of held route %+v: %v", label, r, err)
				}
				if err := sameRelease(t, label+" second release", word, ref, r); len(r.ports) > 0 && err == nil {
					t.Fatalf("%s: second release of %+v succeeded", label, r)
				}
			}

			// Two failed channels, one in each direction, and the other half
			// released around them: a route naming one is refused at that
			// channel and returns the rest, every other route is clean.
			var victims []heldRoute
			for i, r := range held {
				if i%2 == 1 && len(r.ports) > 0 && !reflect.DeepEqual(r, partial) {
					if victims = append(victims, r); len(victims) == 2 {
						break
					}
				}
			}
			if len(victims) < 2 {
				t.Fatalf("%s: no two routes left to fault", label)
			}
			cur.Start(tree, victims[0].src, victims[0].dst)
			deadUp := [3]int{0, cur.Sigma(), victims[0].ports[0]}
			cur.Start(tree, victims[1].src, victims[1].dst)
			deadDown := [3]int{0, cur.Delta(), victims[1].ports[0]}
			for _, s := range []*State{word, ref} {
				s.FailLink(Up, deadUp[0], deadUp[1], deadUp[2])
				s.FailLink(Down, deadDown[0], deadDown[1], deadDown[2])
			}
			sawFailed, sawClean := 0, 0
			for i, r := range held {
				if i%2 == 0 || reflect.DeepEqual(r, partial) {
					continue
				}
				err := sameRelease(t, label+" faulted", word, ref, r)
				switch {
				case err == nil:
					sawClean++
				case strings.Contains(err.Error(), "is failed"):
					sawFailed++
				default:
					t.Fatalf("%s: faulted release of %+v: %v", label, r, err)
				}
			}
			if sawFailed < 2 || sawClean == 0 {
				t.Fatalf("%s: %d releases crossed a failed channel and %d were clean, want both kinds", label, sawFailed, sawClean)
			}
			if word.Available(Up, deadUp[0], deadUp[1], deadUp[2]) || word.Available(Down, deadDown[0], deadDown[1], deadDown[2]) {
				t.Fatalf("%s: a release resurrected a failed channel", label)
			}
			if word.OccupiedCount() != 0 {
				t.Fatalf("%s: %d channels still held after every route was released", label, word.OccupiedCount())
			}

			// A denied request's rollback releases the levels it got to. On
			// the faulted state: a clean one-level prefix, then a prefix that
			// names the failed upward channel (refused, the other side back).
			top := tree.LinkLevels()
			var deep heldRoute
			for n := 0; n < tree.Nodes()*tree.Nodes() && deep.ports == nil; n++ {
				src, dst := n/tree.Nodes(), n%tree.Nodes()
				if tree.AncestorLevel(src, dst) != top {
					continue
				}
				cur.Start(tree, src, dst)
				if cur.Sigma() == deadUp[1] && cur.Delta() != deadDown[1] {
					deep = heldRoute{src, dst, []int{(deadUp[2] + 1) % tree.Parents()}}
				}
			}
			if deep.ports == nil {
				t.Fatalf("%s: no full-height route from the switch with the failed upward channel", label)
			}
			cur.Start(tree, deep.src, deep.dst)
			for _, s := range []*State{word, ref} {
				if err := s.Allocate(Up, 0, cur.Sigma(), deep.ports[0]); err != nil {
					t.Fatal(err)
				}
				if err := s.Allocate(Down, 0, cur.Delta(), deep.ports[0]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sameHeldRelease(t, label+" faulted prefix", word, ref, deep); err != nil {
				t.Fatalf("%s: rollback of a clean one-level prefix: %v", label, err)
			}
			deep.ports = []int{deadUp[2]}
			for _, s := range []*State{word, ref} {
				if err := s.Allocate(Down, 0, cur.Delta(), deep.ports[0]); err != nil {
					t.Fatal(err)
				}
			}
			err = sameHeldRelease(t, label+" faulted prefix over the fault", word, ref, deep)
			if err == nil || !strings.Contains(err.Error(), "is failed") {
				t.Fatalf("%s: rollback across the failed channel = %v, want an is-failed error", label, err)
			}
			if !word.Available(Down, 0, cur.Delta(), deep.ports[0]) || word.OccupiedCount() != 0 {
				t.Fatalf("%s: the healthy side of the refused prefix was not returned", label)
			}
		}
	}
}
