package main

// Gray-failure operations: the server-side home of the intermittent
// fault processes. Clean faults (POST /fault with links/switches) flip
// state once and are done; flaky links have to be *driven* — something
// must advance the fabric clock and apply each step's up/down diff.
// That something is the stepper below: one timer per server on the
// router's clock, armed on the first flaky injection and re-armed by each
// step, stepping every plane's Flapper at a fixed cadence and feeding the
// diffs through the plane's ordinary Fail/Repair surface, where flap
// damping then sees them.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/faults"
)

// grayStep is the flaky-process clock period: fast enough to exercise
// flap damping interactively, slow enough to stay negligible next to
// admission work.
const grayStep = 5 * time.Millisecond

// grayState is the server's registry of running intermittent fault
// processes, one Flapper per plane, driven by a single stepper: timer,
// nil until the first flaky injection arms it. Once stopped, it is never
// armed again.
type grayState struct {
	mu       sync.Mutex
	flappers map[string]*faults.Flapper
	timer    clock.Timer
	stopped  bool
}

func newGrayState() *grayState {
	return &grayState{flappers: make(map[string]*faults.Flapper)}
}

// addFlaky validates and registers flaky-link processes on a plane and
// makes sure the stepper is running. Returns how many processes the
// plane now runs.
func (s *server) addFlaky(name string, surf fabric.Surface, procs []faults.FlakyLink) (int, error) {
	tree := surf.Tree()
	for i := range procs {
		if err := procs[i].Validate(tree); err != nil {
			return 0, err
		}
	}
	s.gray.mu.Lock()
	defer s.gray.mu.Unlock()
	fl := s.gray.flappers[name]
	if fl == nil {
		fl = faults.NewFlapper(procs)
		s.gray.flappers[name] = fl
	} else {
		fl.Add(procs)
	}
	if s.gray.timer == nil && !s.gray.stopped {
		s.gray.timer = s.router.Clock().AfterFunc(grayStep, s.stepGray)
	}
	return len(fl.Procs()), nil
}

// clearFlaky drops a plane's flaky processes and heals whatever they
// currently hold down (the whole-plane repair verb calls it before
// RepairPlane, which then lifts the quarantine too).
func (s *server) clearFlaky(name string, surf fabric.Surface) int {
	s.gray.mu.Lock()
	fl := s.gray.flappers[name]
	delete(s.gray.flappers, name)
	s.gray.mu.Unlock()
	if fl == nil {
		return 0
	}
	if ds := fl.DownSet(); !ds.Empty() {
		surf.Repair(ds) // nolint:errcheck — the set came from the tree
	}
	return len(fl.Procs())
}

// flakyStatus is one process's row in GET /faults: the process itself
// plus its remaining duty-cycle state (current up/down and the step the
// plane's clock has reached).
type flakyStatus struct {
	faults.FlakyLink
	Down bool   `json:"down"`
	Step uint64 `json:"step"`
}

// flakyStatuses snapshots a plane's running processes.
func (s *server) flakyStatuses(name string) []flakyStatus {
	s.gray.mu.Lock()
	defer s.gray.mu.Unlock()
	fl := s.gray.flappers[name]
	if fl == nil {
		return nil
	}
	procs := fl.Procs()
	out := make([]flakyStatus, len(procs))
	for i := range procs {
		out[i] = flakyStatus{FlakyLink: procs[i], Down: fl.Down(i), Step: fl.Steps()}
	}
	return out
}

// stepGray is the stepper timer's callback: it advances each plane's
// Flapper one step, applies the transition diff through the plane's
// Fail/Repair surface and re-arms itself one grayStep out. Injection
// errors cannot happen (every process validated against its tree on the
// way in); a closed plane simply rejects the injection, which is fine —
// the processes die with the fabric.
func (s *server) stepGray() {
	s.gray.mu.Lock()
	defer s.gray.mu.Unlock()
	if s.gray.stopped {
		return
	}
	for name, fl := range s.gray.flappers {
		surf, ok := s.router.Plane(name)
		if !ok {
			continue
		}
		fail, repair := fl.Step()
		if fail != nil {
			surf.Fail(fail) // nolint:errcheck
		}
		if repair != nil {
			surf.Repair(repair) // nolint:errcheck
		}
	}
	s.gray.timer.Reset(grayStep)
}

// stopGray halts the stepper (tests and shutdown; idempotent): once it
// returns, no step runs.
func (s *server) stopGray() {
	s.gray.mu.Lock()
	defer s.gray.mu.Unlock()
	s.gray.stopped = true
	if s.gray.timer != nil {
		s.gray.timer.Stop()
	}
}

// faultKind classifies a clean fault set for the response body.
func faultKind(fs *faults.FaultSet) string {
	switch {
	case len(fs.Links) > 0 && len(fs.Switches) > 0:
		return "mixed"
	case len(fs.Switches) > 0:
		return "switch"
	default:
		return "link"
	}
}

// quarantinedStrings renders a plane's quarantined channels for the
// /faults body (channel coordinates as linkstate strings).
func quarantinedStrings(surf fabric.Surface) []string {
	q := surf.Quarantined()
	if len(q) == 0 {
		return []string{}
	}
	out := make([]string, len(q))
	for i, c := range q {
		out[i] = fmt.Sprint(c)
	}
	return out
}
