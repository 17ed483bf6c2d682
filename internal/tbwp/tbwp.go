// Package tbwp implements a Turn-Back-When-Possible baseline after
// Kariniemi & Nurmi ("New adaptive routing algorithm for extended
// generalized fat trees on-chip", SoC 2003), the adaptive scheme the
// paper's introduction discusses: the topmost switches are connected
// together, and a connection blocked on its way down may turn back up
// toward the root — or, at the top, slide sideways along the top-level
// ring — and try another downward path instead of failing outright.
//
// Adaptation notes (DESIGN.md §5): the original is a packet-switched
// on-chip NoC algorithm; here it sets up circuits like the other
// schedulers so schedulability ratios are comparable. The top-level
// lateral interconnect is modeled as a bidirectional ring with one
// channel per (switch, direction); a connection's walk may therefore be
// non-minimal (up/down/up/…/lateral/down), and every channel the walk
// crosses is held by the circuit. A hop budget bounds pathological walks.
package tbwp

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Channel identifies one held channel of a walk.
type Channel struct {
	Kind  ChannelKind
	Level int // link level for Up/Down; unused for Lateral
	Index int // switch index at Level (Up/Down) or top-switch index (Lateral)
	Port  int // upper port (Up/Down) or ring direction 0/1 (Lateral)
}

// ChannelKind discriminates the three channel resources.
type ChannelKind int

// Channel kinds.
const (
	Up ChannelKind = iota
	Down
	Lateral
)

// Walk is the outcome of one TBWP connection attempt.
type Walk struct {
	Src, Dst int
	Granted  bool
	Channels []Channel // channels held (complete walk when granted)
	Hops     int
	Laterals int // lateral moves taken
}

// Result summarizes a TBWP batch.
type Result struct {
	Walks   []Walk
	Granted int
	Total   int
	// LateralsUsed counts lateral channels consumed by granted circuits.
	LateralsUsed int
}

// Ratio returns granted/total (1 for an empty batch).
func (r *Result) Ratio() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Granted) / float64(r.Total)
}

// Scheduler is the TBWP baseline.
type Scheduler struct {
	// Policy picks upward ports (FirstFit or RandomFit).
	Policy core.PortPolicy
	// MaxHops bounds a single connection's walk; 0 means 4·l + 2·ring.
	MaxHops int
	// Seed drives the random policy.
	Seed int64
}

// ringState tracks the top-level ring channels: ring[idx][dir], dir 0 =
// toward (idx+1) mod n, dir 1 = toward (idx-1+n) mod n.
type ringState struct {
	n    int
	busy [][2]bool
}

func newRing(n int) *ringState { return &ringState{n: n, busy: make([][2]bool, n)} }

func (r *ringState) neighbor(idx, dir int) int {
	if dir == 0 {
		return (idx + 1) % r.n
	}
	return (idx - 1 + r.n) % r.n
}

// Schedule routes the batch. The tree link state persists in st; the
// top-ring channels are fresh per call (the ring belongs to this
// baseline's extended topology, not to the plain fat tree).
func (s *Scheduler) Schedule(st *linkstate.State, reqs []core.Request) *Result {
	tree := st.Tree()
	rng := rand.New(rand.NewSource(s.Seed + 1))
	ring := newRing(tree.SwitchesAt(tree.Levels() - 1))
	maxHops := s.MaxHops
	if maxHops == 0 {
		maxHops = 4*tree.Levels() + 2*ring.n
	}
	res := &Result{Total: len(reqs)}
	for _, rq := range reqs {
		w := s.route(st, ring, rng, rq, maxHops)
		if w.Granted {
			res.Granted++
			res.LateralsUsed += w.Laterals
		}
		res.Walks = append(res.Walks, w)
	}
	return res
}

// route attempts one connection as a forward-moving token (see package
// comment). On failure it releases everything the walk held.
func (s *Scheduler) route(st *linkstate.State, ring *ringState, rng *rand.Rand, rq core.Request, maxHops int) Walk {
	tree := st.Tree()
	w := Walk{Src: rq.Src, Dst: rq.Dst}
	h := tree.AncestorLevel(rq.Src, rq.Dst)
	if h == 0 {
		w.Granted = true
		return w
	}
	dstSwitch, _ := tree.NodeSwitch(rq.Dst)
	dstLab := tree.Spec().LabelOf(0, dstSwitch)
	top := tree.Levels() - 1

	hold := func(c Channel) {
		w.Channels = append(w.Channels, c)
	}
	fail := func() Walk {
		for i := len(w.Channels) - 1; i >= 0; i-- {
			c := w.Channels[i]
			switch c.Kind {
			case Up:
				if err := st.Release(linkstate.Up, c.Level, c.Index, c.Port); err != nil {
					panic(fmt.Sprintf("tbwp: %v", err))
				}
			case Down:
				if err := st.Release(linkstate.Down, c.Level, c.Index, c.Port); err != nil {
					panic(fmt.Sprintf("tbwp: %v", err))
				}
			case Lateral:
				ring.busy[c.Index][c.Port] = false
			}
		}
		w.Channels = nil
		w.Granted = false
		return w
	}

	// isAncestor reports whether the level-k switch idx is an ancestor of
	// the destination (its child digits at positions >= k match dst's).
	isAncestor := func(k, idx int) bool {
		lab := tree.Spec().LabelOf(k, idx)
		for pos := k; pos <= tree.Levels()-2; pos++ {
			if lab[pos] != dstLab[pos] {
				return false
			}
		}
		return true
	}

	cur, _ := tree.NodeSwitch(rq.Src)
	level := 0
	for w.Hops = 0; w.Hops < maxHops; w.Hops++ {
		if level == 0 && cur == dstSwitch {
			w.Granted = true
			return w
		}
		if level > 0 && isAncestor(level, cur) {
			// Descend toward dst: the next child is forced.
			child := tree.DownChild(level-1, cur, dstLab[level-1])
			port := tree.DownChildUpPort(level-1, cur, dstLab[level-1])
			if st.Available(linkstate.Down, level-1, child, port) {
				if err := st.Allocate(linkstate.Down, level-1, child, port); err != nil {
					panic(fmt.Sprintf("tbwp: %v", err))
				}
				hold(Channel{Kind: Down, Level: level - 1, Index: child, Port: port})
				cur = child
				level--
				continue
			}
			// Blocked going down: turn back up when possible…
			if level < top {
				if s.climb(st, rng, &w, &cur, &level) {
					continue
				}
				return fail()
			}
			// …or slide along the top ring.
			moved := false
			for _, dir := range ringDirs(rng, s.Policy) {
				if !ring.busy[cur][dir] {
					ring.busy[cur][dir] = true
					hold(Channel{Kind: Lateral, Index: cur, Port: dir})
					cur = ring.neighbor(cur, dir)
					w.Laterals++
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			return fail()
		}
		// Not yet above an ancestor: climb.
		if !s.climb(st, rng, &w, &cur, &level) {
			return fail()
		}
	}
	return fail() // hop budget exhausted
}

// climb takes one upward hop from *cur using the policy; false if no
// upward channel is available (or already at the top).
func (s *Scheduler) climb(st *linkstate.State, rng *rand.Rand, w *Walk, cur, level *int) bool {
	tree := st.Tree()
	if *level >= tree.Levels()-1 {
		return false
	}
	avail := st.ULink(*level, *cur)
	if avail == 0 {
		return false
	}
	rank := 0
	if s.Policy == core.RandomFit {
		rank = rng.Intn(bits.OnesCount64(avail))
	}
	port := core.NthSet(avail, rank)
	if err := st.Allocate(linkstate.Up, *level, *cur, port); err != nil {
		panic(fmt.Sprintf("tbwp: %v", err))
	}
	w.Channels = append(w.Channels, Channel{Kind: Up, Level: *level, Index: *cur, Port: port})
	*cur = tree.UpParent(*level, *cur, port)
	*level++
	return true
}

// ringDirs orders the two ring directions per policy.
func ringDirs(rng *rand.Rand, policy core.PortPolicy) [2]int {
	if policy == core.RandomFit && rng.Intn(2) == 1 {
		return [2]int{1, 0}
	}
	return [2]int{0, 1}
}

// VerifyWalks replays every granted walk against a fresh link state and
// ring, confirming no channel is shared between circuits and each walk
// is a connected switch sequence from src to dst.
func VerifyWalks(tree *topology.Tree, res *Result) error {
	st := linkstate.New(tree)
	ring := newRing(tree.SwitchesAt(tree.Levels() - 1))
	for i := range res.Walks {
		w := &res.Walks[i]
		if !w.Granted {
			if len(w.Channels) != 0 {
				return fmt.Errorf("tbwp: walk %d failed but holds channels", i)
			}
			continue
		}
		cur, _ := tree.NodeSwitch(w.Src)
		level := 0
		for _, c := range w.Channels {
			switch c.Kind {
			case Up:
				if c.Level != level || c.Index != cur {
					return fmt.Errorf("tbwp: walk %d up hop from (%d,%d), token at (%d,%d)", i, c.Level, c.Index, level, cur)
				}
				if err := st.Allocate(linkstate.Up, c.Level, c.Index, c.Port); err != nil {
					return fmt.Errorf("tbwp: walk %d: %v", i, err)
				}
				cur = tree.UpParent(c.Level, c.Index, c.Port)
				level++
			case Down:
				// c.Index is the child reached, c.Port its upper port
				// back to the current switch.
				if c.Level != level-1 || tree.UpParent(c.Level, c.Index, c.Port) != cur {
					return fmt.Errorf("tbwp: walk %d down hop disconnected", i)
				}
				if err := st.Allocate(linkstate.Down, c.Level, c.Index, c.Port); err != nil {
					return fmt.Errorf("tbwp: walk %d: %v", i, err)
				}
				cur = c.Index
				level--
			case Lateral:
				if level != tree.Levels()-1 || c.Index != cur {
					return fmt.Errorf("tbwp: walk %d lateral hop not at top/current", i)
				}
				if ring.busy[c.Index][c.Port] {
					return fmt.Errorf("tbwp: walk %d lateral channel reused", i)
				}
				ring.busy[c.Index][c.Port] = true
				cur = ring.neighbor(c.Index, c.Port)
			}
		}
		dstSwitch, _ := tree.NodeSwitch(w.Dst)
		if level != 0 || cur != dstSwitch {
			return fmt.Errorf("tbwp: walk %d ends at (%d,%d), dst switch %d", i, level, cur, dstSwitch)
		}
	}
	granted := 0
	for i := range res.Walks {
		if res.Walks[i].Granted {
			granted++
		}
	}
	if granted != res.Granted {
		return fmt.Errorf("tbwp: granted count %d, walks show %d", res.Granted, granted)
	}
	return nil
}
