// Package faults is the fault model for degraded-fabric operation: a
// declarative, serializable description of which components of an
// FT(l, m, w) have failed, and deterministic generators for injecting
// them. A FaultSet names failed links — (link level, switch, port,
// direction) — and failed switches; a switch failure expands to every
// link incident on the switch, up-side and down-side. The set is what
// travels over the wire (ftserve's POST /fault), what E17's fault cycle
// injects, and what linkstate applies to its persistent fault mask.
//
// The fat tree's defining property — w-way path diversity at every
// level — is exactly what makes masking these faults cheap: a failed
// link is a permanently cleared availability bit, and the Theorem 2
// mirror arithmetic still holds on the surviving ports, so every
// scheduler routes around the fault set unchanged.
package faults

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Direction selects which channels of a physical link a fault covers.
// The zero value is Both — the common case of a severed cable — so a
// JSON fault that omits "direction" kills the whole link.
type Direction int

// Fault directions.
const (
	Both Direction = iota
	Up
	Down
)

// String names the direction as it appears on the wire.
func (d Direction) String() string {
	switch d {
	case Both:
		return "both"
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// MarshalJSON encodes the direction as its wire name.
func (d Direction) MarshalJSON() ([]byte, error) {
	switch d {
	case Both, Up, Down:
		return json.Marshal(d.String())
	default:
		return nil, fmt.Errorf("faults: invalid direction %d", int(d))
	}
}

// UnmarshalJSON accepts "up", "down", "both", or "" (meaning both).
func (d *Direction) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch strings.ToLower(s) {
	case "", "both":
		*d = Both
	case "up":
		*d = Up
	case "down":
		*d = Down
	default:
		return fmt.Errorf("faults: invalid direction %q (up, down or both)", s)
	}
	return nil
}

// LinkFault names a failed link: the physical link at link level Level
// leaving upward port Port of the level-Level switch Switch, restricted
// to one channel by Direction (or both channels, the default).
type LinkFault struct {
	Level     int       `json:"level"`
	Switch    int       `json:"switch"`
	Port      int       `json:"port"`
	Direction Direction `json:"direction,omitempty"`
}

// SwitchFault names a failed switch at (Level, Switch); it expands to
// every incident link — the upward links to its parents and the
// downward links from its children.
type SwitchFault struct {
	Level  int `json:"level"`
	Switch int `json:"switch"`
}

// FaultSet is a serializable set of failed components. The zero value
// is the empty set (a fully healthy fabric).
type FaultSet struct {
	Links    []LinkFault   `json:"links,omitempty"`
	Switches []SwitchFault `json:"switches,omitempty"`
}

// Empty reports whether the set names no failed component.
func (f *FaultSet) Empty() bool {
	return f == nil || (len(f.Links) == 0 && len(f.Switches) == 0)
}

// Validate checks every named component exists in the tree.
func (f *FaultSet) Validate(tree *topology.Tree) error {
	if f == nil {
		return nil
	}
	for _, l := range f.Links {
		if l.Level < 0 || l.Level >= tree.LinkLevels() {
			return fmt.Errorf("faults: link level %d outside [0, %d)", l.Level, tree.LinkLevels())
		}
		if l.Switch < 0 || l.Switch >= tree.SwitchesAt(l.Level) {
			return fmt.Errorf("faults: level-%d switch %d outside [0, %d)", l.Level, l.Switch, tree.SwitchesAt(l.Level))
		}
		if l.Port < 0 || l.Port >= tree.Parents() {
			return fmt.Errorf("faults: port %d outside [0, %d)", l.Port, tree.Parents())
		}
		if l.Direction < Both || l.Direction > Down {
			return fmt.Errorf("faults: invalid direction %d", int(l.Direction))
		}
	}
	for _, s := range f.Switches {
		if s.Level < 0 || s.Level >= tree.Levels() {
			return fmt.Errorf("faults: switch level %d outside [0, %d)", s.Level, tree.Levels())
		}
		if s.Switch < 0 || s.Switch >= tree.SwitchesAt(s.Level) {
			return fmt.Errorf("faults: level-%d switch %d outside [0, %d)", s.Level, s.Switch, tree.SwitchesAt(s.Level))
		}
	}
	return nil
}

// Channel is one link channel in linkstate's coordinates — the
// granularity at which faults are applied and repaired.
type Channel struct {
	Dir    linkstate.Direction
	Level  int
	Switch int
	Port   int
}

// String renders the channel for diagnostics.
func (c Channel) String() string {
	return fmt.Sprintf("%s@level %d switch %d port %d", c.Dir, c.Level, c.Switch, c.Port)
}

// Compare orders channels by level, switch, port and direction — the
// order in which every channel list of the fabric is reported.
func (c Channel) Compare(d Channel) int {
	return cmp.Or(cmp.Compare(c.Level, d.Level), cmp.Compare(c.Switch, d.Switch),
		cmp.Compare(c.Port, d.Port), cmp.Compare(c.Dir, d.Dir))
}

// Channels expands the fault set into the deduplicated list of link
// channels it covers, in deterministic order: switch failures become
// their incident links (parent-side links at the switch's own link
// level, child-side links at the level below), Both-direction faults
// become an up and a down channel. The set must Validate against the
// tree first; Channels panics on out-of-range components.
func (f *FaultSet) Channels(tree *topology.Tree) []Channel {
	if f.Empty() {
		return nil
	}
	seen := make(map[Channel]struct{})
	var out []Channel
	add := func(d linkstate.Direction, h, idx, port int) {
		c := Channel{Dir: d, Level: h, Switch: idx, Port: port}
		if _, dup := seen[c]; dup {
			return
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	addLink := func(l LinkFault) {
		if l.Direction == Both || l.Direction == Up {
			add(linkstate.Up, l.Level, l.Switch, l.Port)
		}
		if l.Direction == Both || l.Direction == Down {
			add(linkstate.Down, l.Level, l.Switch, l.Port)
		}
	}
	for _, l := range f.Links {
		addLink(l)
	}
	for _, s := range f.Switches {
		// Parent-side: the switch's own upward links (absent for the top
		// level, which has no parents).
		if s.Level < tree.LinkLevels() {
			for p := 0; p < tree.Parents(); p++ {
				addLink(LinkFault{Level: s.Level, Switch: s.Switch, Port: p})
			}
		}
		// Child-side: the links climbing into this switch from the level
		// below (absent for level 0, whose children are processing nodes).
		if s.Level > 0 {
			h := s.Level - 1
			for c := 0; c < tree.Children(); c++ {
				addLink(LinkFault{
					Level:  h,
					Switch: tree.DownChild(h, s.Switch, c),
					Port:   tree.DownChildUpPort(h, s.Switch, c),
				})
			}
		}
	}
	slices.SortFunc(out, Channel.Compare)
	return out
}

// Apply fails every channel of the set on the state and returns the
// number of channels newly taken out of service (already-failed
// channels do not count).
func (f *FaultSet) Apply(st *linkstate.State) int {
	failed := 0
	for _, c := range f.Channels(st.Tree()) {
		if !st.Failed(c.Dir, c.Level, c.Switch, c.Port) {
			st.FailLink(c.Dir, c.Level, c.Switch, c.Port)
			failed++
		}
	}
	return failed
}

// String summarizes the set for logs.
func (f *FaultSet) String() string {
	if f.Empty() {
		return "faults: none"
	}
	return fmt.Sprintf("faults: %d links, %d switches", len(f.Links), len(f.Switches))
}

// Uniform fails each physical link of the tree (both channels)
// independently with probability p, using a deterministic RNG seeded
// with seed — E17's i.i.d. link-failure model. p <= 0
// returns the empty set.
func Uniform(tree *topology.Tree, p float64, seed int64) *FaultSet {
	fs := &FaultSet{}
	if p <= 0 {
		return fs
	}
	rng := rand.New(rand.NewSource(seed))
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for port := 0; port < tree.Parents(); port++ {
				if rng.Float64() < p {
					fs.Links = append(fs.Links, LinkFault{Level: h, Switch: idx, Port: port})
				}
			}
		}
	}
	return fs
}

// CorrelatedSwitches fails each whole switch independently with
// probability q — the correlated failure mode (power feed, line card)
// that takes out every incident link at once. Deterministic in seed.
func CorrelatedSwitches(tree *topology.Tree, q float64, seed int64) *FaultSet {
	fs := &FaultSet{}
	if q <= 0 {
		return fs
	}
	rng := rand.New(rand.NewSource(seed))
	for lvl := 0; lvl < tree.Levels(); lvl++ {
		for idx := 0; idx < tree.SwitchesAt(lvl); idx++ {
			if rng.Float64() < q {
				fs.Switches = append(fs.Switches, SwitchFault{Level: lvl, Switch: idx})
			}
		}
	}
	return fs
}
