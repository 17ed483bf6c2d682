package core

import (
	"fmt"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// RouteCursor re-exports the topology package's route cursor so scheduler
// code can walk σ/δ pairs without importing topology at every call site.
// The cursor lives in topology because linkstate (which core builds on)
// replays the same geometry for AllocatePath/ReleasePath.
type RouteCursor = topology.RouteCursor

// ReleaseRoute is the shared teardown replay: it returns the up/down
// channel pair every held port of a connection's climb claims, through
// linkstate's own walk (ReleaseHeld: the word form where the state has
// one). Every rollback path — the Level-wise scheduler's, the stale-view
// commit failure, the parallel engine's, and the fabric manager's
// retained-port cleanup — funnels through it, so the Theorem 1/2 walk is
// never re-derived at a release site. ops may be nil for callers that do
// not count operations; a release that fails is a scheduler invariant
// violation and panics.
func ReleaseRoute(st *linkstate.State, src, dst int, ports []int, ops *Counters) {
	if err := st.ReleaseHeld(src, dst, ports); err != nil {
		panic(fmt.Sprintf("core: invariant violation: %v", err))
	}
	if ops != nil {
		ops.Releases += 2 * len(ports)
	}
}
