package faults

// Gray failures: components that are neither up nor down but somewhere
// in between. Clean faults (faults.go) flip once; the processes here
// *oscillate* — a FlakyLink spends a duty-cycle fraction of fabric
// steps out of service, a DegradedPlane answers admissions slowly for a
// duty-cycle fraction of calls. Both are driven by a counter-mode hash
// (splitmix64 finalizer over the seed, the component coordinates, and
// the step number), so the processes are stateless, seekable, and
// bit-reproducible: step n of a given process is the same on every
// machine and every run, which is what lets the chaos tests and E21
// replay identical churn against both arms of a comparison.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/topology"
)

// Duration is a time.Duration that serializes as a Go duration string
// ("2ms"), matching the federation config grammar.
type Duration time.Duration

// MarshalJSON encodes the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string ("" means zero).
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("faults: duration: %w", err)
	}
	if s == "" {
		*d = 0
		return nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("faults: duration: %w", err)
	}
	*d = Duration(v)
	return nil
}

// FlakyLink is a seeded intermittent fault process on one link: at each
// fabric step the link is down with probability DutyCycle, decided by a
// deterministic hash of (Seed, link coordinates, step). Successive
// steps are independent draws, so a flaky link transitions up/down at
// rate ≈ 2·d·(1−d) per step — the worst-case churn source the flap
// damper exists to bound.
type FlakyLink struct {
	Link LinkFault `json:"link"`
	// DutyCycle is the fraction of steps spent down, in [0, 1].
	DutyCycle float64 `json:"duty_cycle"`
	// Seed decorrelates processes that share a link or a generator call.
	Seed int64 `json:"seed,omitempty"`
}

// Down reports whether the link is out of service during the given
// step. Deterministic: same receiver and step, same answer, always.
func (f *FlakyLink) Down(step uint64) bool {
	h := uint64(f.Seed)
	h = mix64(h ^ uint64(f.Link.Level))
	h = mix64(h ^ uint64(f.Link.Switch)<<16)
	h = mix64(h ^ uint64(f.Link.Port)<<32)
	h = mix64(h ^ uint64(f.Link.Direction)<<48)
	h = mix64(h ^ step)
	return unit(h) < f.DutyCycle
}

// Validate checks the process: the link must exist in the tree and the
// duty cycle must be a probability.
func (f *FlakyLink) Validate(tree *topology.Tree) error {
	fs := FaultSet{Links: []LinkFault{f.Link}}
	if err := fs.Validate(tree); err != nil {
		return err
	}
	if math.IsNaN(f.DutyCycle) || f.DutyCycle < 0 || f.DutyCycle > 1 {
		return fmt.Errorf("faults: flaky duty_cycle %v outside [0, 1]", f.DutyCycle)
	}
	return nil
}

// DegradedPlane is a seeded slow-but-alive process for a federation
// plane: a DutyCycle fraction of admissions (decided per admission
// sequence number, same hash construction as FlakyLink) incur
// AdmitLatency before the plane answers. The plane grants normally —
// the failure is purely latency, which the router's breaker, hearing
// faults only, does not act on.
type DegradedPlane struct {
	// Plane names the target plane (ftserve resolves it; a Router call
	// carries the name explicitly, so the field may be empty there).
	Plane string `json:"plane,omitempty"`
	// AdmitLatency is injected before the admission call when the
	// process is active.
	AdmitLatency Duration `json:"admit_latency"`
	// DutyCycle is the fraction of admissions delayed, in [0, 1];
	// 0 means never (a no-op process), 1 means every admission.
	DutyCycle float64 `json:"duty_cycle"`
	Seed      int64   `json:"seed,omitempty"`
}

// SlowAt reports whether admission number seq (0-based, per plane) pays
// the injected latency.
func (d *DegradedPlane) SlowAt(seq uint64) bool {
	h := uint64(d.Seed)
	for _, b := range []byte(d.Plane) {
		h = mix64(h ^ uint64(b))
	}
	h = mix64(h ^ seq)
	return unit(h) < d.DutyCycle
}

// Validate checks the process parameters (tree-independent; the plane
// name is resolved by whoever applies it).
func (d *DegradedPlane) Validate() error {
	if math.IsNaN(d.DutyCycle) || d.DutyCycle < 0 || d.DutyCycle > 1 {
		return fmt.Errorf("faults: degraded duty_cycle %v outside [0, 1]", d.DutyCycle)
	}
	if d.AdmitLatency < 0 {
		return fmt.Errorf("faults: negative admit_latency %s", time.Duration(d.AdmitLatency))
	}
	return nil
}

// GraySet is the serializable bundle of intermittent fault processes —
// the gray analogue of FaultSet, and the wire form ftserve's POST
// /fault accepts for flaky injection. The zero value is empty.
type GraySet struct {
	Flaky    []FlakyLink     `json:"flaky,omitempty"`
	Degraded []DegradedPlane `json:"degraded,omitempty"`
}

// Empty reports whether the set holds no process.
func (g *GraySet) Empty() bool {
	return g == nil || (len(g.Flaky) == 0 && len(g.Degraded) == 0)
}

// Validate checks every process; flaky links validate against the tree.
func (g *GraySet) Validate(tree *topology.Tree) error {
	if g == nil {
		return nil
	}
	for i := range g.Flaky {
		if err := g.Flaky[i].Validate(tree); err != nil {
			return err
		}
	}
	for i := range g.Degraded {
		if err := g.Degraded[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String summarizes the set for logs.
func (g *GraySet) String() string {
	if g.Empty() {
		return "gray: none"
	}
	return fmt.Sprintf("gray: %d flaky links, %d degraded planes", len(g.Flaky), len(g.Degraded))
}

// FlakyLinks selects each physical link of the tree independently with
// probability p and makes it a flaky process with the given duty cycle
// — the gray analogue of Uniform. Each process gets its own derived
// seed, so two selected links never flap in lockstep. Deterministic in
// seed; p <= 0 returns nil.
func FlakyLinks(tree *topology.Tree, p, duty float64, seed int64) []FlakyLink {
	if p <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []FlakyLink
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for port := 0; port < tree.Parents(); port++ {
				pick := rng.Float64() < p
				procSeed := rng.Int63() // always draw: selection-independent streams
				if pick {
					out = append(out, FlakyLink{
						Link:      LinkFault{Level: h, Switch: idx, Port: port},
						DutyCycle: duty,
						Seed:      procSeed,
					})
				}
			}
		}
	}
	return out
}

// Flapper steps a set of FlakyLink processes against a fabric and
// emits, per step, the diff as a pair of clean fault sets: the links
// that just went down (to Fail) and the links that just came back (to
// Repair). It is the bridge between the stateless processes and the
// fabric's stateful Fail/Repair surface — ftserve's stepper and E21's
// cells both drive one.
type Flapper struct {
	procs []FlakyLink
	down  []bool
	step  uint64
}

// NewFlapper starts a flapper over the given processes, all links
// initially in service (the first Step applies step 0's down set).
func NewFlapper(procs []FlakyLink) *Flapper {
	return &Flapper{
		procs: append([]FlakyLink(nil), procs...),
		down:  make([]bool, len(procs)),
	}
}

// Add registers more processes mid-flight, initially in service.
func (f *Flapper) Add(procs []FlakyLink) {
	f.procs = append(f.procs, procs...)
	f.down = append(f.down, make([]bool, len(procs))...)
}

// Step advances the fabric clock one step and returns the transition
// diff: fail names links that went down this step, repair links that
// came back. Either may be nil when nothing transitioned.
func (f *Flapper) Step() (fail, repair *FaultSet) {
	n := f.step
	f.step++
	for i := range f.procs {
		d := f.procs[i].Down(n)
		if d == f.down[i] {
			continue
		}
		f.down[i] = d
		if d {
			if fail == nil {
				fail = &FaultSet{}
			}
			fail.Links = append(fail.Links, f.procs[i].Link)
		} else {
			if repair == nil {
				repair = &FaultSet{}
			}
			repair.Links = append(repair.Links, f.procs[i].Link)
		}
	}
	return fail, repair
}

// Steps returns how many steps have been applied.
func (f *Flapper) Steps() uint64 { return f.step }

// Procs returns the registered processes (shared backing; read-only).
func (f *Flapper) Procs() []FlakyLink { return f.procs }

// DownCount returns how many registered links are currently down.
func (f *Flapper) DownCount() int {
	n := 0
	for _, d := range f.down {
		if d {
			n++
		}
	}
	return n
}

// DownSet returns the currently-down links as a clean fault set — what
// a heal pass must Repair after the flapper stops stepping.
func (f *Flapper) DownSet() *FaultSet {
	fs := &FaultSet{}
	for i, d := range f.down {
		if d {
			fs.Links = append(fs.Links, f.procs[i].Link)
		}
	}
	return fs
}

// Down reports whether process i is currently down.
func (f *Flapper) Down(i int) bool { return f.down[i] }

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1) using the top 53 bits.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
