package fabric

import "repro/internal/stats"

// Dist summarizes one of the manager's recent-sample histograms
// (stats.Recent) for Stats. "Recent" is the last 4096 to 8191 samples: the
// histogram drops its older half every 4096. N, Mean, Min, Max and StdDev
// are exact over those samples. P50, P95 and P99 are the lower edge of the
// histogram bucket holding the nearest-rank sample, clamped to [Min, Max]:
// exact for integers up to 32, powers of two and single-valued samples,
// otherwise low by less than one bucket (under 6.25 %). Hist is that
// histogram re-binned into 8 equal bins over [Min, Max].
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Hist   []int   `json:"hist,omitempty"`
}

// distOf summarizes a copy of a histogram; it sorts nothing and allocates
// only Hist.
func distOf(r *stats.Recent) Dist {
	h := r.Hist()
	s := h.Summary()
	return Dist{
		N: s.N, Mean: s.Mean, Min: s.Min, Max: s.Max, StdDev: s.StdDev,
		P50: h.Percentile(50), P95: h.Percentile(95), P99: h.Percentile(99),
		Hist: h.Bins(8),
	}
}

// Stats is a consistent observability snapshot of a Manager. The counter
// invariant is Offered == Granted + Rejected + Cancelled once the queue
// is drained — CheckInvariants states it and every other identity these
// counters obey; Overflow counts requests turned away before ever entering
// the queue by their own deadline (backpressure timeout or context
// cancel while blocked), DrainRefused requests turned away because the
// manager was draining — both are outside that identity.
type Stats struct {
	Offered   uint64 `json:"offered"`
	Granted   uint64 `json:"granted"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`
	Released  uint64 `json:"released"`
	Overflow  uint64 `json:"overflow"`
	// DrainRefused counts Connect calls refused with ErrDraining: the
	// shutdown-race exits previously folded into Overflow, now split out
	// so backpressure and drain refusals are separately attributable.
	DrainRefused uint64 `json:"drain_refused,omitempty"`
	Epochs       uint64 `json:"epochs"`
	// Active is the number of currently held (granted, unreleased)
	// connections; QueueDepth the requests waiting for the next epoch.
	Active     int64 `json:"active"`
	QueueDepth int   `json:"queue_depth"`
	// Utilization is occupied channels / total channels on the live state.
	Utilization float64 `json:"utilization"`
	// Occupancy is the live occupied-channel count from the link state's
	// O(1) gauge (the least-loaded plane-selection signal); ChannelAllocs
	// is the cumulative number of channel allocations ever performed.
	Occupancy     int64  `json:"occupancy"`
	ChannelAllocs uint64 `json:"channel_allocs"`
	// EpochSize and EpochLatencyMS summarize the recent epochs (the last
	// 4096–8191; see Dist for what "recent" and the percentiles mean); epoch
	// latency is measured from the oldest member's enqueue to its verdict,
	// so it includes the batching wait.
	EpochSize      Dist `json:"epoch_size"`
	EpochLatencyMS Dist `json:"epoch_latency_ms"`
	// Engine observability, counted from what ran: SequentialEpochs +
	// ParallelEpochs == Epochs, and an epoch counts as parallel only when
	// a parallel engine (SchedulerSpec "parallel,…") actually fanned it
	// out — its sequential fallback on a degenerate batch counts as
	// sequential. LastEpochEngine names the scheduler that ran the most
	// recent epoch, mode and worker count included (e.g.
	// "parallel-level-wise/shard+steal/w4").
	SequentialEpochs uint64 `json:"sequential_epochs"`
	ParallelEpochs   uint64 `json:"parallel_epochs"`
	LastEpochEngine  string `json:"last_epoch_engine,omitempty"`
	// Fault and repair observability. Every revocation resolves into
	// exactly one of Repaired, RepairFailed (retries exhausted →
	// ErrUnroutableDegraded), or RepairAborted (shutdown or owner release
	// mid-repair); PendingRepairs is the in-flight difference.
	// FaultyChannels counts currently failed channels; DegradedCapacity
	// is the fraction of channels still in service (1.0 when healthy).
	Revoked          uint64  `json:"revoked"`
	Repaired         uint64  `json:"repaired"`
	RepairFailed     uint64  `json:"repair_failed"`
	RepairAborted    uint64  `json:"repair_aborted"`
	PendingRepairs   int64   `json:"pending_repairs"`
	FaultyChannels   int     `json:"faulty_channels"`
	DegradedCapacity float64 `json:"degraded_capacity"`
	// RepairLatencyMS and RepairDepth summarize the recent successful
	// repairs (the last 4096–8191): revoke-to-readmission latency and
	// scheduling attempts used.
	RepairLatencyMS Dist `json:"repair_latency_ms"`
	RepairDepth     Dist `json:"repair_depth"`
	// Gray-failure observability (see gray.go). RepairAttempts counts
	// repair scheduling attempts (one per verdict; at most RepairRetries
	// per revocation). FlapEvents counts the down-transitions flap
	// damping observed, QuarantineEvents quarantine entries, Quarantined
	// the channels currently held in quarantine (masked but no longer
	// failed-listed once healed). RepairedOnHeldTrunk counts successful
	// repairs whose new route landed beside already-held circuits at a
	// parent switch — the reuse-cost repair-placement signal.
	RepairAttempts      uint64 `json:"repair_attempts"`
	FlapEvents          uint64 `json:"flap_events,omitempty"`
	QuarantineEvents    uint64 `json:"quarantine_events,omitempty"`
	Quarantined         int    `json:"quarantined,omitempty"`
	RepairedOnHeldTrunk uint64 `json:"repaired_on_held_trunk,omitempty"`
	// Reconfiguration-cost observability. ReuseCost echoes the engine's
	// reuse-cost cap (0 = first-fit). TornRoutes counts routes torn down
	// (releases, revocations) and EstablishedRoutes routes set up (grants
	// and repairs holding channels); RouteChurn summarizes their
	// per-scheduling-epoch sum — the reconfiguration cost — over the recent
	// epochs (the last 4096–8191).
	ReuseCost         int    `json:"reuse_cost,omitempty"`
	TornRoutes        uint64 `json:"torn_routes"`
	EstablishedRoutes uint64 `json:"established_routes"`
	RouteChurn        Dist   `json:"route_churn"`
}

// capacityLocked is the fraction of channels still in service (1.0 when
// healthy). Caller holds m.mu.
func (m *Manager) capacityLocked() float64 {
	total := m.st.ChannelCount()
	if total == 0 {
		return 1
	}
	return float64(total-m.st.FailedCount()) / float64(total)
}

// Stats returns a snapshot of the manager's counters, queue, epoch
// distributions, and live link utilization. Its cost does not depend on how
// many epochs have run: the five fixed-size histograms are copied under the
// lock and summarized outside it, and nothing is sorted.
//
// The call takes the scheduling lock and drains parked fast-path releases
// first, so the snapshot reflects every
// Release that returned before the call (read-your-writes). Everything
// read from the link state is read inside that one locked section, so
// Occupancy is exactly Utilization × channels in every snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	m.drainReleasesLocked()
	engine := m.lastEngine
	faulty, quarantined := len(m.failed), len(m.quar)
	util, capacity := m.st.Utilization(), m.capacityLocked()
	// The gauge and the per-channel counters belong to the epochs: read
	// here, with Utilization, they describe the same instant.
	occupancy, allocs := m.st.LiveOccupancy(), m.st.TotalAllocs()
	hist := m.hist // recorded under mu, so this copy is of one instant too
	m.mu.Unlock()
	m.qmu.Lock()
	depth, offered, overflow, drainRefused := len(m.pending), m.offered, m.overflow, m.drainRefused
	m.qmu.Unlock()
	return Stats{
		Offered:        offered,
		Granted:        m.granted.Load(),
		Rejected:       m.rejected.Load(),
		Cancelled:      m.cancelled.Load(),
		Released:       m.released.Load(),
		Overflow:       overflow,
		DrainRefused:   drainRefused,
		Epochs:         m.epochs.Load(),
		Active:         m.active.Load(),
		QueueDepth:     depth,
		Utilization:    util,
		Occupancy:      occupancy,
		ChannelAllocs:  allocs,
		EpochSize:      distOf(&hist.epochSize),
		EpochLatencyMS: distOf(&hist.epochLatMS),

		SequentialEpochs: m.seqEpochs.Load(),
		ParallelEpochs:   m.parEpochs.Load(),
		LastEpochEngine:  engine,

		Revoked:          m.revoked.Load(),
		Repaired:         m.repaired.Load(),
		RepairFailed:     m.repairFailed.Load(),
		RepairAborted:    m.repairAborted.Load(),
		PendingRepairs:   m.pendingRepairs.Load(),
		FaultyChannels:   faulty,
		DegradedCapacity: capacity,
		RepairLatencyMS:  distOf(&hist.repairLatMS),
		RepairDepth:      distOf(&hist.repairDepth),

		RepairAttempts:      m.repairAttempts.Load(),
		FlapEvents:          m.flapEvents.Load(),
		QuarantineEvents:    m.quarantineEvents.Load(),
		Quarantined:         quarantined,
		RepairedOnHeldTrunk: m.repairedOnHeldTrunk.Load(),

		ReuseCost:         m.reuseCost,
		TornRoutes:        m.tornRoutes.Load(),
		EstablishedRoutes: m.establishedRoutes.Load(),
		RouteChurn:        distOf(&hist.routeChurn),
	}
}

// Health is the liveness slice of Stats: what a probe needs to tell a
// clean plane from a degraded one, with the same meanings as the Stats
// fields of the same names.
type Health struct {
	FaultyChannels   int
	Quarantined      int
	DegradedCapacity float64
	PendingRepairs   int64
}

// Health reports the plane's fault state without the rest of a Stats
// snapshot: no histogram copies, no release drain, no pass over the load
// counters. The scheduling lock
// is held only to count the fault sets.
func (m *Manager) Health() Health {
	m.mu.Lock()
	h := Health{
		FaultyChannels:   len(m.failed),
		Quarantined:      len(m.quar),
		DegradedCapacity: m.capacityLocked(),
		PendingRepairs:   m.pendingRepairs.Load(),
	}
	m.mu.Unlock()
	return h
}
