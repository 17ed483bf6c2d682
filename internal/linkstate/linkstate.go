// Package linkstate tracks the availability of every upward and downward
// link channel in a fat tree, exactly as the paper's scheduler hardware
// does with its Ulink and Dlink memories.
//
// For each link level h (joining switch levels h and h+1) the state holds
// two bit matrices indexed by (level-h switch, upper port): Ulink marks
// the upward channel available, Dlink the downward channel of the same
// physical link. Bit set means available (the paper's convention: "If
// Ulink(h,τ)[i] equals one, [the] upward link connected via port i of
// switch (h,τ) is available; otherwise, it is occupied").
//
// # Invariants
//
// Callers rely on these properties, covered by misuse_test.go:
//
//   - Allocate of an occupied channel and Release of a free channel fail
//     without mutating anything — double allocation is always caught.
//   - AllocatePath is atomic: on any conflict it releases the channels
//     it claimed and returns with the state exactly as before the call.
//   - Distinct States are fully independent (the scratch AND buffer is
//     per-State), so parallel workers may each own one.
//
// # Fault mask
//
// A State additionally carries a persistent fault mask, separate from
// the allocation bits: FailLink takes a channel out of service and
// RepairLink returns it. The mask is ANDed into availability eagerly —
// failing a channel clears its Ulink/Dlink bit immediately — so every
// availability query (AvailBothInto, the atomic variants, raw
// ULink/DLink rows, Available) sees failed channels as unavailable at
// zero extra per-query cost, and every scheduler routes around faults
// unchanged. The mask obeys its own invariants:
//
//   - Release of a failed channel is refused: its availability bit is
//     never resurrected by teardown, so a fault survives the departure
//     of whatever connection was crossing the link when it died.
//   - Reset re-opens every healthy channel but keeps failed channels
//     out of service.
//   - FailLink forfeits any live allocation on the channel: callers
//     that track connections (internal/fabric) must revoke holders of a
//     failed channel; RepairLink returns the channel to service free.
//   - OccupiedCount and Utilization count allocated channels only —
//     "dead" (failed) is a distinct category reported by FailedCount.
//
// Because the mask is kept apart from the allocation bits, a denial can be
// told apart by cause: BlockedByMask replays first-fit over the mask alone
// and says whether the request would be denied with every circuit gone
// (fault) or was denied only because channels are held (contention).
//
// A State is NOT safe for concurrent use of its plain methods.
// Concurrent callers must either serialize externally — internal/fabric
// runs every scheduling epoch and every release under one manager lock —
// or restrict themselves to the atomic subset (TryAllocate,
// AtomicRelease, AvailBothAtomicInto), which lock-free workers in
// internal/parsched may race freely against each other. Mixing the two
// families concurrently is a data race.
package linkstate

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/topology"
)

// Direction selects one of the two channels of a physical link.
type Direction int

// The two channel directions.
const (
	Up Direction = iota
	Down
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// State is the complete link-availability state of one fat tree. It is not
// safe for concurrent mutation (or mutation concurrent with reads): batch
// schedulers own a State outright, and the serving layer (internal/fabric)
// guards its live State with the epoch lock.
type State struct {
	tree    *topology.Tree
	ulink   []*bitvec.Matrix // per link level: rows = switches at level h
	dlink   []*bitvec.Matrix
	scratch bitvec.Vector // reused AND buffer, width w
	// failedU/failedD are the fault mask: bit set means the channel is
	// out of service. Reset keeps masked channels unavailable, Release
	// refuses to resurrect them, RepairLink clears them. Nil until the
	// first FailLink call, so fault-free states pay nothing.
	failedU []*bitvec.Matrix
	failedD []*bitvec.Matrix
	// uw/dw alias the matrices' backing words when each row is a single
	// machine word (w <= 64): uw[h][idx] IS Ulink(h, idx), so the word
	// fast path (AvailBothWord, AllocateBoth) and the Vector API mutate
	// the same storage and can never diverge. Nil when rows span words.
	// fuw/fdw alias failedU/failedD the same way, once those exist.
	uw, dw   [][]uint64
	fuw, fdw [][]uint64

	// nfailed counts the bits set in failedU/failedD. It is written under
	// the State's serialization like the mask itself, and atomic only so
	// that Unavailable may read it with none.
	nfailed atomic.Int64

	// Load counters, enabled by TrackLoad: loadU/loadD count cumulative
	// allocation events per channel (indexed [level][switch*w+port]) and
	// occ is a live aggregate occupancy gauge — the O(1) signal
	// least-loaded plane selection reads instead of a popcount scan. The
	// counters are single-writer, like the availability rows they sit
	// beside: whoever may mutate a row increments its counters with plain
	// adds, and only TryAllocate counts atomically. The gauge is atomic
	// and moves once per pass, not once per channel (see TrackLoad). When
	// tracking is off (the default) every hot path pays one predictable
	// branch.
	trackLoad    bool
	loadU, loadD [][]uint64
	occ          atomic.Int64
}

// New returns a State for the tree with every link available.
func New(tree *topology.Tree) *State {
	s := &State{
		tree:    tree,
		ulink:   make([]*bitvec.Matrix, tree.LinkLevels()),
		dlink:   make([]*bitvec.Matrix, tree.LinkLevels()),
		scratch: bitvec.New(tree.Parents()),
	}
	for h := 0; h < tree.LinkLevels(); h++ {
		rows := tree.SwitchesAt(h)
		s.ulink[h] = bitvec.NewMatrix(rows, tree.Parents())
		s.dlink[h] = bitvec.NewMatrix(rows, tree.Parents())
	}
	if tree.Parents() <= 64 && tree.LinkLevels() > 0 {
		s.uw = make([][]uint64, tree.LinkLevels())
		s.dw = make([][]uint64, tree.LinkLevels())
		for h := range s.ulink {
			s.uw[h] = s.ulink[h].Words()
			s.dw[h] = s.dlink[h].Words()
		}
	}
	s.Reset()
	return s
}

// WordRows reports whether every availability row fits a single machine
// word (w <= 64), enabling the word fast path below.
func (s *State) WordRows() bool { return s.uw != nil }

// AvailBothWord is the word-form of AvailBothInto for WordRows states:
// it returns Ulink(h,src) AND Dlink(h,mir) as one uint64. Bit order is
// identical to the Vector form, so FirstFit (lowest set bit) picks the
// same port either way — the golden tests pin the two paths
// bit-identical. The fault mask is pre-folded into the availability
// bits exactly as for AvailBothInto.
func (s *State) AvailBothWord(h, src, mir int) uint64 {
	return s.uw[h][src] & s.dw[h][mir]
}

// AllocateBoth claims the level-h upward channel at the source-side
// switch sigma and the downward channel of the same port at the mirror
// switch delta — the per-level pair every grant allocates — in one step.
// The caller must have verified the port free on both sides (bit set in
// AvailBothWord); a non-free channel here is an invariant violation and
// panics rather than corrupting occupancy.
func (s *State) AllocateBoth(h, sigma, delta, port int) {
	AllocateWords(&s.uw[h][sigma], &s.dw[h][delta], uint64(1)<<uint(port))
	if s.trackLoad {
		s.NoteAllocBoth(h, sigma, delta, port)
		s.occ.Add(2)
	}
}

// LevelWords returns link level h's Ulink and Dlink rows as words
// (WordRows states only): u[idx] IS Ulink(h, idx) and d[idx] IS
// Dlink(h, idx), the storage AvailBothWord reads. A sweep that visits many
// switches of one level fetches the two slices once, ANDs rows itself and
// claims ports with AllocateWords; on a LoadTracking state it owes one
// NoteAllocBoth per claim and one MoveOccupancy for the pass.
func (s *State) LevelWords(h int) (u, d []uint64) { return s.uw[h], s.dw[h] }

// AllocateWords is the allocation half of AllocateBoth on rows taken
// from LevelWords: it clears bit (one port) in the Ulink row *u and the
// Dlink row *d. The same contract holds — the port must be free on both
// sides, and a non-free one panics before either row changes.
func AllocateWords(u, d *uint64, bit uint64) {
	if *u&*d&bit == 0 {
		// A typed value, not a formatted string: the call that would
		// format it here costs AllocateWords its inlining.
		panic(nonFreePort{*u, *d, bit})
	}
	*u &^= bit
	*d &^= bit
}

// nonFreePort is AllocateWords' panic value.
type nonFreePort struct{ u, d, bit uint64 }

func (e nonFreePort) Error() string {
	return fmt.Sprintf("linkstate: allocation of non-free port %d (Ulink row %#x, Dlink row %#x)", bits.TrailingZeros64(e.bit), e.u, e.d)
}

// NoteAllocBoth is the counting half of AllocateBoth on a LoadTracking
// state (callers guard): it counts one allocation event on the upward
// channel at (h, sigma, port) and one on the downward channel at
// (h, delta, port). The two adds are plain — the caller is the goroutine
// that just cleared those rows' bits, so it is the counters' only writer
// — and the occupancy gauge is not touched: a sweep sums its claims and
// settles them with one MoveOccupancy when it is done.
func (s *State) NoteAllocBoth(h, sigma, delta, port int) {
	w := s.tree.Parents()
	s.loadU[h][sigma*w+port]++
	s.loadD[h][delta*w+port]++
}

// MoveOccupancy adds delta channels to the live occupancy gauge of a
// LoadTracking state: the one atomic operation a pass over many channels
// (a sweep that counted with NoteAllocBoth) owes for all of them.
func (s *State) MoveOccupancy(delta int) { s.occ.Add(int64(delta)) }

// Tree returns the topology this state belongs to.
func (s *State) Tree() *topology.Tree { return s.tree }

// TrackLoad enables the per-link load counters and the live occupancy
// gauge. Enable it before the first allocation (internal/fabric enables
// it at manager construction); enabling is idempotent. Tracking costs
// one branch on every allocate/release when off, and when on one plain
// add per channel claimed plus one atomic add per pass —
// TestScheduleIntoZeroAllocs pins that the scheduling hot path stays at
// zero allocations either way.
//
// The counters follow the State's own concurrency contract. The
// per-channel cumulative counters are single-writer: whoever is allowed
// to mutate a row with the plain API (the fabric's epoch under its lock, a
// parsched shard worker on its own subtree's rows) increments that row's
// counters with plain adds, and TotalAllocs, LoadSnapshot and ChannelLoad
// are plain reads that need the same serialization as any other read of
// the State (the fabric's Stats reads them before it drops the lock).
// Only TryAllocate counts with an atomic add, because its callers race
// each other by design. The gauge is the one value read with no
// serialization at all (LiveOccupancy), so it stays atomic — but a pass
// settles it once: core.SweepWords for every port it claimed, a release
// walk (ReleasePath, ReleaseHeld) for the route it freed.
func (s *State) TrackLoad() {
	if s.trackLoad {
		return
	}
	s.loadU = make([][]uint64, len(s.ulink))
	s.loadD = make([][]uint64, len(s.dlink))
	for h := range s.ulink {
		s.loadU[h] = make([]uint64, s.ulink[h].Rows()*s.ulink[h].Width())
		s.loadD[h] = make([]uint64, s.dlink[h].Rows()*s.dlink[h].Width())
	}
	s.occ.Store(int64(s.OccupiedCount()))
	s.trackLoad = true
}

// LoadTracking reports whether TrackLoad has been enabled.
func (s *State) LoadTracking() bool { return s.trackLoad }

// load returns the cumulative counter of one channel of a tracked state.
func (s *State) load(d Direction, h, idx, port int) *uint64 {
	load := s.loadU
	if d == Down {
		load = s.loadD
	}
	return &load[h][idx*s.tree.Parents()+port]
}

// LiveOccupancy returns the current number of allocated channels on a
// tracked state, maintained as an O(1) atomic gauge (forfeited
// allocations of failed channels excluded). It is safe to read lock-free
// from any goroutine. Between passes it equals OccupiedCount; while a
// sweep is in flight it lags by the claims that sweep has yet to settle.
// Zero when tracking is off.
func (s *State) LiveOccupancy() int64 { return s.occ.Load() }

// Unavailable returns the channels no new request can use right now: the
// live occupancy gauge plus the masked (failed) channels. On a tracked
// state it equals OccupiedCount() + FailedCount() between passes. Like the
// gauge it is safe to read lock-free from any goroutine — the capacity
// signal federation's least-loaded policy ranks planes by, so that a plane
// that lost channels to faults ranks behind one that did not.
func (s *State) Unavailable() int64 { return s.occ.Load() + s.nfailed.Load() }

// ChannelLoad returns the cumulative allocation count of one channel
// since TrackLoad was enabled — allocation events, not live occupancy:
// an allocation later released (or rolled back) still counts. Zero when
// tracking is off. A plain read: see TrackLoad for who may call it when.
func (s *State) ChannelLoad(d Direction, h, idx, port int) uint64 {
	if !s.trackLoad {
		return 0
	}
	return *s.load(d, h, idx, port)
}

// TotalAllocs returns the cumulative allocation events across every
// channel since TrackLoad was enabled (zero when tracking is off). Plain
// reads: see TrackLoad for who may call it when.
func (s *State) TotalAllocs() uint64 {
	if !s.trackLoad {
		return 0
	}
	var total uint64
	for h := range s.loadU {
		for _, n := range s.loadU[h] {
			total += n
		}
		for _, n := range s.loadD[h] {
			total += n
		}
	}
	return total
}

// LoadSnapshot returns a copy of the per-channel cumulative allocation
// counters, one slice per link level indexed switch*w+port, split by
// direction. Nil when tracking is off. Plain reads: see TrackLoad for who
// may call it when.
func (s *State) LoadSnapshot() (up, down [][]uint64) {
	if !s.trackLoad {
		return nil, nil
	}
	up = make([][]uint64, len(s.loadU))
	down = make([][]uint64, len(s.loadD))
	for h := range s.loadU {
		up[h] = append([]uint64(nil), s.loadU[h]...)
		down[h] = append([]uint64(nil), s.loadD[h]...)
	}
	return up, down
}

// Reset marks every link channel available, except channels failed via
// FailLink, which stay unavailable.
func (s *State) Reset() {
	for h := range s.ulink {
		s.ulink[h].SetAll()
		s.dlink[h].SetAll()
		if s.failedU != nil {
			for r := 0; r < s.ulink[h].Rows(); r++ {
				s.ulink[h].Row(r).AndNot(s.ulink[h].Row(r), s.failedU[h].Row(r))
				s.dlink[h].Row(r).AndNot(s.dlink[h].Row(r), s.failedD[h].Row(r))
			}
		}
	}
	if s.trackLoad {
		s.occ.Store(0) // everything healthy is free again; failed channels are dead, not occupied
	}
}

// FailLink removes a channel from service: it becomes unavailable now,
// stays unavailable across Reset, and Release refuses to resurrect it.
// It reports whether the channel was free when it failed; false means a
// live allocation was forfeited, and callers that track connections
// (internal/fabric) must revoke the holder — its eventual path release
// skips the dead channel. Failing an already-failed channel is a no-op
// (reported as true).
func (s *State) FailLink(d Direction, h, idx, port int) bool {
	if s.failedU == nil {
		s.failedU = make([]*bitvec.Matrix, len(s.ulink))
		s.failedD = make([]*bitvec.Matrix, len(s.dlink))
		for lvl := range s.ulink {
			s.failedU[lvl] = bitvec.NewMatrix(s.ulink[lvl].Rows(), s.ulink[lvl].Width())
			s.failedD[lvl] = bitvec.NewMatrix(s.dlink[lvl].Rows(), s.dlink[lvl].Width())
			if s.uw != nil {
				s.fuw = append(s.fuw, s.failedU[lvl].Words())
				s.fdw = append(s.fdw, s.failedD[lvl].Words())
			}
		}
	}
	mask, avail := s.failedU[h].Row(idx), s.ulink[h].Row(idx)
	if d == Down {
		mask, avail = s.failedD[h].Row(idx), s.dlink[h].Row(idx)
	}
	if mask.Get(port) {
		return true
	}
	mask.Set(port)
	s.nfailed.Add(1)
	wasFree := avail.Get(port)
	avail.Clear(port)
	if s.trackLoad && !wasFree {
		// The live allocation is forfeited: the channel is dead, not
		// occupied, so it leaves the occupancy gauge with the fault.
		s.occ.Add(-1)
	}
	return wasFree
}

// RepairLink returns a failed channel to service, free. It reports
// whether the channel was actually failed (repairing a healthy channel
// is a no-op). Any connection that crossed the link when it failed must
// have been revoked first — the forfeited allocation is not restored.
func (s *State) RepairLink(d Direction, h, idx, port int) bool {
	if !s.Failed(d, h, idx, port) {
		return false
	}
	if d == Up {
		s.failedU[h].Row(idx).Clear(port)
		s.ulink[h].Row(idx).Set(port)
	} else {
		s.failedD[h].Row(idx).Clear(port)
		s.dlink[h].Row(idx).Set(port)
	}
	s.nfailed.Add(-1)
	return true
}

// Failed reports whether the channel is out of service.
func (s *State) Failed(d Direction, h, idx, port int) bool {
	if s.failedU == nil {
		return false
	}
	if d == Up {
		return s.failedU[h].Row(idx).Get(port)
	}
	return s.failedD[h].Row(idx).Get(port)
}

// FailedCount returns the number of channels removed from service.
func (s *State) FailedCount() int { return int(s.nfailed.Load()) }

// BlockedByMask reports whether the fault mask alone denies a request from
// src to dst: Level-wise first-fit over the unmasked channels, which is the
// verdict the same scheduler would give the request on this state with
// every circuit released. A denied request for which it is false was
// denied by contention — a masked channel was not what stood in its way.
// It reads the mask only (never the availability rows), costs one walk of
// at most l−1 levels, and is false on a state that never had a fault.
func (s *State) BlockedByMask(src, dst int) bool {
	if s.failedU == nil {
		return false
	}
	var cur topology.RouteCursor
	cur.Start(s.tree, src, dst)
	for h, top := 0, s.tree.AncestorLevel(src, dst); h < top; h++ {
		p, ok := firstUnmasked(s.failedU[h], cur.Sigma(), s.failedD[h], cur.Delta())
		if !ok {
			return true
		}
		cur.Advance(p)
	}
	return false
}

// firstUnmasked returns the lowest port whose upward channel at row sigma
// of fu and downward channel at row delta of fd are both out of the mask.
// One loop for single-word and multi-word rows: it runs on denials only.
func firstUnmasked(fu *bitvec.Matrix, sigma int, fd *bitvec.Matrix, delta int) (int, bool) {
	wpr, w := fu.WordsPerRow(), fu.Width()
	u := fu.Words()[sigma*wpr : (sigma+1)*wpr]
	d := fd.Words()[delta*wpr : (delta+1)*wpr]
	for i := range u {
		free := ^(u[i] | d[i])
		if rest := w - 64*i; rest < 64 {
			free &= 1<<uint(rest) - 1
		}
		if free != 0 {
			return 64*i + bits.TrailingZeros64(free), true
		}
	}
	return 0, false
}

// ULink returns the upward availability vector of the level-h switch idx.
// The returned vector aliases internal storage: treat it as read-only and
// use Allocate/Release to mutate.
func (s *State) ULink(h, idx int) bitvec.Vector { return s.ulink[h].Row(idx) }

// DLink returns the downward availability vector of the level-h switch idx
// (same aliasing caveat as ULink).
func (s *State) DLink(h, idx int) bitvec.Vector { return s.dlink[h].Row(idx) }

// AvailBothInto writes Ulink(h,src) AND Dlink(h,mir) — the paper's
// level-h available-port vector for a request whose source-side switch is
// src and destination-side mirror switch is mir — into dst, which the
// caller owns and which must have width Tree().Parents(). Use this (not
// AvailBoth) whenever the result must survive a later availability query,
// and for per-worker scratch in parallel schedulers.
//
// The fault mask is already ANDed in: FailLink clears a failed channel's
// availability bit eagerly, so the two-operand AND here excludes dead
// channels without a third operand on the hot path (the atomic variant
// inherits the same property). BenchmarkAvailBothIntoFaulted pins that a
// masked state costs the same as a healthy one.
func (s *State) AvailBothInto(dst bitvec.Vector, h, src, mir int) {
	dst.And(s.ulink[h].Row(src), s.dlink[h].Row(mir))
}

// AvailBoth is a convenience wrapper around AvailBothInto that uses the
// State's single internal scratch vector. The returned vector is
// invalidated by the next AvailBoth call on this State — callers that
// retain the result across queries must use AvailBothInto with their own
// vector instead.
func (s *State) AvailBoth(h, src, dst int) bitvec.Vector {
	s.AvailBothInto(s.scratch, h, src, dst)
	return s.scratch
}

// AvailBothAtomicInto is AvailBothInto with atomic word loads of the two
// operand rows, for lock-free workers racing TryAllocate/AtomicRelease
// calls. dst is caller-owned scratch; the availability view it receives
// may be stale by the time the worker acts on it, which is safe because
// TryAllocate re-checks under CAS.
func (s *State) AvailBothAtomicInto(dst bitvec.Vector, h, src, mir int) {
	dst.AndAtomic(s.ulink[h].Row(src), s.dlink[h].Row(mir))
}

// Available reports whether the given channel is free.
func (s *State) Available(d Direction, h, idx, port int) bool {
	return s.matrix(d)[h].Row(idx).Get(port)
}

func (s *State) matrix(d Direction) []*bitvec.Matrix {
	if d == Up {
		return s.ulink
	}
	return s.dlink
}

// Allocate marks the channel occupied. It returns an error if the channel
// is already occupied — schedulers rely on this to catch double
// allocation — or failed, with a diagnosis naming which.
func (s *State) Allocate(d Direction, h, idx, port int) error {
	row := s.matrix(d)[h].Row(idx)
	if !row.Get(port) {
		if s.Failed(d, h, idx, port) {
			return fmt.Errorf("linkstate: %s channel at level %d switch %d port %d is failed", d, h, idx, port)
		}
		return fmt.Errorf("linkstate: %s channel at level %d switch %d port %d already occupied", d, h, idx, port)
	}
	row.Clear(port)
	if s.trackLoad {
		*s.load(d, h, idx, port)++
		s.occ.Add(1)
	}
	return nil
}

// TryAllocate atomically claims the channel with a CAS loop, returning
// whether this call claimed it. Unlike Allocate it is safe to race
// against other TryAllocate/AtomicRelease/AvailBothAtomicInto calls on
// the same State: of N concurrent claimants of one channel exactly one
// wins. It must not race plain Allocate/Release/AvailBoth calls.
func (s *State) TryAllocate(d Direction, h, idx, port int) bool {
	if !s.matrix(d)[h].Row(idx).TryClearAtomic(port) {
		return false
	}
	if s.trackLoad {
		atomic.AddUint64(s.load(d, h, idx, port), 1)
		s.occ.Add(1)
	}
	return true
}

// AtomicRelease atomically returns a channel claimed via TryAllocate. It
// panics if the channel is not occupied: lock-free schedulers only ever
// release channels they themselves claimed, so a free channel here is an
// invariant violation, not a runtime condition.
func (s *State) AtomicRelease(d Direction, h, idx, port int) {
	if !s.matrix(d)[h].Row(idx).TrySetAtomic(port) {
		panic(fmt.Sprintf("linkstate: atomic release of free %s channel at level %d switch %d port %d", d, h, idx, port))
	}
	if s.trackLoad {
		s.occ.Add(-1)
	}
}

// Release marks the channel available. It returns an error if the channel
// was not occupied or has been failed via FailLink — a fault is never
// resurrected by teardown; only RepairLink returns a channel to service.
func (s *State) Release(d Direction, h, idx, port int) error {
	if s.failedU != nil {
		failed := s.failedU
		if d == Down {
			failed = s.failedD
		}
		if failed[h].Row(idx).Get(port) {
			return fmt.Errorf("linkstate: %s channel at level %d switch %d port %d is failed", d, h, idx, port)
		}
	}
	row := s.matrix(d)[h].Row(idx)
	if row.Get(port) {
		return fmt.Errorf("linkstate: %s channel at level %d switch %d port %d not occupied", d, h, idx, port)
	}
	row.Set(port)
	if s.trackLoad {
		s.occ.Add(-1)
	}
	return nil
}

// OccupiedCount returns the number of allocated channels (both
// directions) across all levels. Failed channels are dead, not
// occupied: they are excluded here and reported by FailedCount, so the
// two categories never blur. (A channel that was allocated when it
// failed counts as dead from that moment — its allocation is forfeited.)
func (s *State) OccupiedCount() int {
	total := 0
	for h := range s.ulink {
		cap := s.ulink[h].Rows() * s.ulink[h].Width()
		total += cap - s.ulink[h].Count()
		total += cap - s.dlink[h].Count()
	}
	return total - s.FailedCount()
}

// ChannelCount returns the total number of channels (2 per physical link).
func (s *State) ChannelCount() int { return 2 * s.tree.TotalLinks() }

// Utilization returns occupied channels / total channels in [0, 1].
func (s *State) Utilization() float64 {
	if s.ChannelCount() == 0 {
		return 0
	}
	return float64(s.OccupiedCount()) / float64(s.ChannelCount())
}

// LevelOccupancy returns the occupied channel count at link level h, split
// by direction.
func (s *State) LevelOccupancy(h int) (up, down int) {
	cap := s.ulink[h].Rows() * s.ulink[h].Width()
	return cap - s.ulink[h].Count(), cap - s.dlink[h].Count()
}

// Snapshot captures the full state for later Restore. Snapshots are cheap
// (one []uint64 copy per matrix) and are how schedulers implement rollback.
type Snapshot struct {
	u, d [][]uint64
}

// Snapshot returns a copy of the current availability state.
func (s *State) Snapshot() Snapshot {
	snap := Snapshot{
		u: make([][]uint64, len(s.ulink)),
		d: make([][]uint64, len(s.dlink)),
	}
	for h := range s.ulink {
		snap.u[h] = s.ulink[h].Snapshot()
		snap.d[h] = s.dlink[h].Snapshot()
	}
	return snap
}

// Restore rewinds the state to a snapshot taken from the same State.
func (s *State) Restore(snap Snapshot) {
	if len(snap.u) != len(s.ulink) || len(snap.d) != len(s.dlink) {
		panic("linkstate: snapshot shape mismatch")
	}
	for h := range s.ulink {
		s.ulink[h].Restore(snap.u[h])
		s.dlink[h].Restore(snap.d[h])
	}
	if s.trackLoad {
		// The gauge must match the restored bits; the cumulative
		// counters deliberately keep the rolled-back allocation events.
		s.occ.Store(int64(s.OccupiedCount()))
	}
}

// Equal reports whether two states over the same tree have identical
// availability.
func (s *State) Equal(other *State) bool {
	if len(s.ulink) != len(other.ulink) {
		return false
	}
	for h := range s.ulink {
		if !s.ulink[h].Equal(other.ulink[h]) || !s.dlink[h].Equal(other.dlink[h]) {
			return false
		}
	}
	return true
}

// AllocatePath claims every channel of a fully routed connection: the
// upward channel at each climb hop and the downward channel at each mirror
// switch (Theorem 2: same port index at each level). src and dst are
// nodes; ports has one entry per level below the common ancestor. On any
// conflict it releases what it claimed and returns an error, leaving the
// state unchanged.
func (s *State) AllocatePath(src, dst int, ports []int) error {
	h := s.tree.AncestorLevel(src, dst)
	if len(ports) != h {
		return fmt.Errorf("linkstate: request (%d→%d) needs %d ports, got %d", src, dst, h, len(ports))
	}
	type claim struct {
		dir            Direction
		lvl, idx, port int
	}
	var claimed []claim
	undo := func() {
		for i := len(claimed) - 1; i >= 0; i-- {
			c := claimed[i]
			if err := s.Release(c.dir, c.lvl, c.idx, c.port); err != nil {
				panic(err) // release of our own claim cannot fail
			}
		}
	}
	var cur topology.RouteCursor
	cur.Start(s.tree, src, dst)
	var firstErr error
	cur.Walk(ports, func(lvl, sigma, delta, p int) {
		if firstErr != nil {
			return
		}
		if err := s.Allocate(Up, lvl, sigma, p); err != nil {
			firstErr = err
			return
		}
		claimed = append(claimed, claim{Up, lvl, sigma, p})
		if err := s.Allocate(Down, lvl, delta, p); err != nil {
			firstErr = err
			return
		}
		claimed = append(claimed, claim{Down, lvl, delta, p})
	})
	if firstErr != nil {
		undo()
		return firstErr
	}
	return nil
}

// ReleasePath releases every channel of a previously allocated connection.
// It returns an error (after releasing what it can) if any channel was not
// actually occupied.
func (s *State) ReleasePath(src, dst int, ports []int) error {
	h := s.tree.AncestorLevel(src, dst)
	if len(ports) != h {
		return fmt.Errorf("linkstate: request (%d→%d) needs %d ports, got %d", src, dst, h, len(ports))
	}
	return s.ReleaseHeld(src, dst, ports)
}

// ReleaseHeld releases the channel pairs a climb from src toward dst holds
// on its first len(ports) levels — a whole route, or the part of one a
// denied request got to (a scheduler's rollback). Like ReleasePath it
// releases what it can and returns the first error: a channel that was not
// occupied, or one that is failed, which no release resurrects.
//
// On a WordRows state it is the release counterpart of AllocateWords: a
// cursor walk that tests and sets the port's bit in the two rows of each
// level, and on a LoadTracking state moves the gauge once for the route.
// While any channel is failed the walk is releaseHeldFaulted's, which
// holds each bit against the failed rows too. Anywhere else it walks the
// Vector API.
func (s *State) ReleaseHeld(src, dst int, ports []int) error {
	var cur topology.RouteCursor
	cur.Start(s.tree, src, dst)
	if s.uw == nil {
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
	if s.nfailed.Load() > 0 {
		return s.releaseHeldFaulted(&cur, ports)
	}
	w := s.tree.Parents()
	freed := 0
	// The first channel found free, reported once the walk is done: the
	// formatting stays off the path every healthy release takes.
	bad, badDir, badIdx := -1, Up, 0
	for lvl, p := range ports { // the climb starts at level 0: ports[lvl] crosses level lvl
		if uint(p) >= uint(w) {
			panic(fmt.Sprintf("linkstate: port %d out of range [0,%d)", p, w))
		}
		sigma, delta := cur.Sigma(), cur.Delta()
		u, d, bit := &s.uw[lvl][sigma], &s.dw[lvl][delta], uint64(1)<<uint(p)
		if *u&bit == 0 {
			*u |= bit
			freed++
		} else if bad < 0 {
			bad, badDir, badIdx = lvl, Up, sigma
		}
		if *d&bit == 0 {
			*d |= bit
			freed++
		} else if bad < 0 {
			bad, badDir, badIdx = lvl, Down, delta
		}
		cur.Advance(p)
	}
	if s.trackLoad && freed > 0 {
		s.occ.Add(-int64(freed))
	}
	if bad >= 0 {
		return fmt.Errorf("linkstate: %s channel at level %d switch %d port %d not occupied", badDir, bad, badIdx, ports[bad])
	}
	return nil
}

// releaseHeldFaulted is ReleaseHeld's word walk on a state with failed
// channels: a failed channel's bit is clear in its row, like an occupied
// one's, so each bit is tested against the row OR its failed row, and the
// refusal says which it was. It is a second loop and not a flag in the
// first because the unfaulted walk is every batch scheduler's rollback:
// the flag cost that walk 6 % (EXPERIMENTS E27).
func (s *State) releaseHeldFaulted(cur *topology.RouteCursor, ports []int) error {
	w := s.tree.Parents()
	freed := 0
	bad, badDir, badIdx := -1, Up, 0
	for lvl, p := range ports {
		if uint(p) >= uint(w) {
			panic(fmt.Sprintf("linkstate: port %d out of range [0,%d)", p, w))
		}
		sigma, delta := cur.Sigma(), cur.Delta()
		u, d, bit := &s.uw[lvl][sigma], &s.dw[lvl][delta], uint64(1)<<uint(p)
		if (*u|s.fuw[lvl][sigma])&bit == 0 {
			*u |= bit
			freed++
		} else if bad < 0 {
			bad, badDir, badIdx = lvl, Up, sigma
		}
		if (*d|s.fdw[lvl][delta])&bit == 0 {
			*d |= bit
			freed++
		} else if bad < 0 {
			bad, badDir, badIdx = lvl, Down, delta
		}
		cur.Advance(p)
	}
	if s.trackLoad && freed > 0 {
		s.occ.Add(-int64(freed))
	}
	if bad >= 0 {
		why := "not occupied"
		if s.Failed(badDir, bad, badIdx, ports[bad]) {
			why = "is failed"
		}
		return fmt.Errorf("linkstate: %s channel at level %d switch %d port %d %s", badDir, bad, badIdx, ports[bad], why)
	}
	return nil
}
