package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/stats"
	"repro/internal/topology"
)

// measure is the paper's measurement (Section 5): the schedulability
// ratio of one contender over a permutation sample. Each batch gets a
// reset link state and a fresh engine from spec, and every result must
// pass core.Verify; the first failure is returned as is, for the caller
// to name. prep, when non-nil, runs once on the new state before the
// first batch (a fault mask survives Reset); visit, when non-nil, sees
// every verified result.
func measure(tree *topology.Tree, spec SchedulerSpec, batches [][]core.Request,
	prep func(*linkstate.State), visit func(*core.Result)) (stats.Summary, error) {
	st := linkstate.New(tree)
	if prep != nil {
		prep(st)
	}
	ratios := make([]float64, 0, len(batches))
	for _, b := range batches {
		st.Reset()
		r := spec.Make().Schedule(st, b)
		if err := core.Verify(tree, r); err != nil {
			return stats.Summary{}, err
		}
		if visit != nil {
			visit(r)
		}
		ratios = append(ratios, r.Ratio())
	}
	return stats.Summarize(ratios), nil
}

// runJobs runs every job on at most workers goroutines (one when workers
// < 1) and returns the first error in job order. Jobs must not share
// mutable state; each writes only its own result slot.
func runJobs(workers int, jobs []func() error) error {
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = job()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
