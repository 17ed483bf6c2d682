// Package coretest holds the reference Level-wise scheduler: the paper's
// Figure 7 written the obvious way, over []bool rows, one port at a time,
// for the tests of internal/core's word kernel. It imports neither core
// nor linkstate, so that core's own tests can hold the kernel to it.
package coretest

import (
	"math/rand"
	"sort"

	"repro/internal/topology"
)

// Options are core.Options, spelled out. A step takes the lowest free
// port; with Random a Rand.Intn draw among them; with LeastLoaded the one
// whose σ-side parent has the most free upward channels, ties low. A
// positive ReuseCost replaces both: a free port scores the channels held
// at its σ-side Ulink and δ-side Dlink parent rows, capped at ReuseCost,
// best first, ties low. Shuffle orders the requests by Rand.Shuffle,
// DeepestFirst by descending H (stable); RequestMajor routes each request
// through all its levels before the next starts; Rollback releases a
// denied request's channels at once.
type Options struct {
	Random, LeastLoaded                 bool
	ReuseCost                           int
	Shuffle, DeepestFirst, RequestMajor bool
	Rollback                            bool
	Rand                                *rand.Rand
}

// Outcome is a request's verdict: granted with H ports, or denied at
// FailLevel holding Ports (none after a rollback); FailLevel is -1 for a
// grant. σ and δ are its switch pair at the next level.
type Outcome struct {
	H, FailLevel int
	Granted      bool
	Ports        []int
	sigma, delta int
}

// State is a link state: Up[h][idx][p] is true when the upward channel of
// level-h switch idx at port p is free, Down likewise downward. Claims
// logs every claim as {h, σ, δ, p}; Steps counts level visits and
// Released the channels rollbacks returned.
type State struct {
	Tree            *topology.Tree
	Up, Down        [][][]bool
	Claims          [][4]int
	Steps, Released int
}

// New is a state of tree with every channel free.
func New(tree *topology.Tree) *State {
	s := &State{Tree: tree}
	for h := 0; h < tree.LinkLevels(); h++ {
		s.Up, s.Down = append(s.Up, make([][]bool, tree.SwitchesAt(h))), append(s.Down, make([][]bool, tree.SwitchesAt(h)))
		for idx := range s.Up[h] {
			s.Up[h][idx], s.Down[h][idx] = make([]bool, tree.Parents()), make([]bool, tree.Parents())
			for p := range s.Up[h][idx] {
				s.Up[h][idx][p], s.Down[h][idx][p] = true, true
			}
		}
	}
	return s
}

// LevelWise schedules reqs ({src, dst} pairs), changing s.
func (s *State) LevelWise(reqs [][2]int, o Options) []Outcome {
	outs, order := make([]Outcome, len(reqs)), make([]int, len(reqs))
	for i, r := range reqs {
		order[i] = i
		outs[i] = Outcome{H: s.Tree.AncestorLevel(r[0], r[1]), FailLevel: -1, Ports: []int{}}
		outs[i].Granted = outs[i].H == 0
		outs[i].sigma, _ = s.Tree.NodeSwitch(r[0])
		outs[i].delta, _ = s.Tree.NodeSwitch(r[1])
	}
	if o.Shuffle {
		o.Rand.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	} else if o.DeepestFirst {
		sort.SliceStable(order, func(a, b int) bool { return outs[order[a]].H > outs[order[b]].H })
	}
	live := func(i int) bool { return !outs[i].Granted && outs[i].FailLevel < 0 }
	for h := 0; h < s.Tree.LinkLevels(); h++ {
		for _, i := range order {
			for l := h; live(i); l++ {
				s.step(reqs[i], &outs[i], l, o)
				if !o.RequestMajor {
					break
				}
			}
		}
	}
	return outs
}

// step is Figure 7 for one request at level h: AND the two rows, pick a
// port, claim both channels and climb, or deny.
func (s *State) step(r [2]int, out *Outcome, h int, o Options) {
	s.Steps++
	var free []int
	for p, up := range s.Up[h][out.sigma] {
		if up && s.Down[h][out.delta][p] {
			free = append(free, p)
		}
	}
	if len(free) == 0 {
		out.FailLevel = h
		if o.Rollback {
			sigma, _ := s.Tree.NodeSwitch(r[0])
			delta, _ := s.Tree.NodeSwitch(r[1])
			for l, p := range out.Ports {
				s.Up[l][sigma][p], s.Down[l][delta][p] = true, true
				s.Released += 2
				sigma, delta = s.Tree.UpParent(l, sigma, p), s.Tree.UpParent(l, delta, p)
			}
			out.Ports = out.Ports[:0]
		}
		return
	}
	p := free[0]
	switch w := s.Tree.Parents(); {
	case o.ReuseCost == 0 && o.Random:
		p = free[o.Rand.Intn(len(free))]
	case h+1 < s.Tree.LinkLevels() && (o.ReuseCost > 0 || o.LeastLoaded):
		best := -1
		for _, q := range free {
			score := count(s.Up[h+1][s.Tree.UpParent(h, out.sigma, q)])
			if o.ReuseCost > 0 {
				score = min(o.ReuseCost, 2*w-score-count(s.Down[h+1][s.Tree.UpParent(h, out.delta, q)]))
			}
			if score > best {
				p, best = q, score
			}
		}
	}
	s.Up[h][out.sigma][p], s.Down[h][out.delta][p] = false, false
	s.Claims = append(s.Claims, [4]int{h, out.sigma, out.delta, p})
	out.Ports = append(out.Ports, p)
	out.Granted = len(out.Ports) == out.H
	out.sigma, out.delta = s.Tree.UpParent(h, out.sigma, p), s.Tree.UpParent(h, out.delta, p)
}

// count is the number of free channels in a row.
func count(row []bool) int {
	n := 0
	for _, free := range row {
		if free {
			n++
		}
	}
	return n
}
