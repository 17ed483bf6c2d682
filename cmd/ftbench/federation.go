package main

// The -planes mode turns ftbench into a federation load generator: the
// same closed-loop FIFO-churn clients as -fabric, but driving a
// multi-plane federation router, swept over plane count × selection
// policy at a fixed client pool (equal offered load per point). Each
// point reports aggregate grants/sec, the per-plane grant counts, and
// the max/min imbalance ratio — the load-spread signal EXPERIMENTS.md
// E18 tracks.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/federation"
	"repro/internal/topology"
)

// fedBenchConfig parameterizes one federation sweep.
type fedBenchConfig struct {
	fabricBenchConfig
	PlaneCounts []int    // plane counts to sweep (identical planes)
	Policies    []string // plane selection policies to sweep
	ConfigPath  string   // explicit FileConfig instead of identical planes
	JSONPath    string   // also write the sweep results as JSON ("" = skip)
}

// planeGrants is one plane's share of a run, for the JSON record.
type planeGrants struct {
	Name   string `json:"name"`
	Grants uint64 `json:"grants"`
}

// fedResult is one sweep point's measurement.
type fedResult struct {
	Planes         int     `json:"planes"`
	Policy         string  `json:"policy"`
	Clients        int     `json:"clients"`
	DurationSec    float64 `json:"duration_sec"`
	Offered        uint64  `json:"offered"`
	Granted        uint64  `json:"granted"`
	Rejected       uint64  `json:"rejected"`
	Failovers      uint64  `json:"failovers"`
	GrantsPerSec   float64 `json:"grants_per_sec"`
	Schedulability float64 `json:"schedulability"`
	// Imbalance is max/min of per-plane grants; 0 means undefined (some
	// plane took no grants), rendered as "inf" in the text output.
	Imbalance float64       `json:"imbalance"`
	PerPlane  []planeGrants `json:"per_plane"`
	Admit     admitDist     `json:"admit"`
	// Host parallelism at run time, so throughput numbers carry the
	// hardware context they were measured under.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// closedLoopFederation is closedLoop against a federation router: the
// same churn model, counting grants and scheduler denials. A non-nil
// rec captures per-Connect wall time for tail-latency reporting.
func closedLoopFederation(r *federation.Router, cfg fabricBenchConfig, rec *latRecorder) (loopCounts, time.Duration, error) {
	var admitted, denied atomic.Uint64
	deadline := time.Now().Add(cfg.Duration)
	nodes := r.Nodes()
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			var held []*federation.Handle
			defer func() {
				for _, h := range held {
					if err := h.Release(); err != nil && errs[id] == nil {
						errs[id] = fmt.Errorf("client %d final release: %w", id, err)
					}
				}
			}()
			for time.Now().Before(deadline) {
				for len(held) >= cfg.Open {
					if err := held[0].Release(); err != nil {
						errs[id] = fmt.Errorf("client %d release: %w", id, err)
						return
					}
					held = held[1:]
				}
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				var began time.Time
				if rec != nil {
					began = time.Now()
				}
				h, err := r.Connect(context.Background(), src, dst)
				if rec != nil {
					rec.record(id, time.Since(began))
				}
				switch {
				case err == nil:
					admitted.Add(1)
					held = append(held, h)
				case errors.Is(err, fabric.ErrUnroutable) || errors.Is(err, fabric.ErrUnroutableDegraded):
					denied.Add(1)
				default:
					errs[id] = fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return loopCounts{}, elapsed, err
		}
	}
	return loopCounts{admitted: admitted.Load(), denied: denied.Load()}, elapsed, nil
}

// fedPoints expands the sweep grid: every plane count × policy from the
// flags, or the single point an explicit config file describes.
func fedPoints(cfg fedBenchConfig) ([]federation.Config, []fedResult, error) {
	if cfg.ConfigPath != "" {
		fc, err := federation.LoadFile(cfg.ConfigPath)
		if err != nil {
			return nil, nil, err
		}
		rc, err := fc.Build()
		if err != nil {
			return nil, nil, err
		}
		return []federation.Config{rc},
			[]fedResult{{Planes: len(rc.Planes), Policy: rc.Policy.String()}}, nil
	}
	var cfgs []federation.Config
	var seeds []fedResult
	for _, n := range cfg.PlaneCounts {
		if n < 1 {
			return nil, nil, fmt.Errorf("federation bench: plane count %d", n)
		}
		for _, polName := range cfg.Policies {
			pol, err := federation.ParsePolicy(polName)
			if err != nil {
				return nil, nil, err
			}
			rc := federation.Config{Policy: pol}
			for i := 0; i < n; i++ {
				tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
				if err != nil {
					return nil, nil, err
				}
				rc.Planes = append(rc.Planes, federation.PlaneConfig{Fabric: fabric.Config{
					Tree: tree, SchedulerSpec: cfg.Scheduler,
					BatchSize: cfg.Batch, MaxWait: cfg.MaxWait,
					AdmitTimeout: cfg.Timeout,
				}})
			}
			cfgs = append(cfgs, rc)
			seeds = append(seeds, fedResult{Planes: n, Policy: pol.String()})
		}
	}
	return cfgs, seeds, nil
}

// federationBench runs the plane-count × policy sweep and prints (and
// optionally JSON-dumps) each point.
func federationBench(out io.Writer, cfg fedBenchConfig) error {
	if err := cfg.fabricBenchConfig.validate(); err != nil {
		return err
	}
	cfgs, results, err := fedPoints(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "federation sweep  clients=%d open=%d epoch=%d maxwait=%s duration=%s\n",
		cfg.Clients, cfg.Open, cfg.Batch, cfg.MaxWait, cfg.Duration)
	for i, rc := range cfgs {
		r, err := federation.New(rc)
		if err != nil {
			return err
		}
		rec := newLatRecorder(cfg.Clients)
		counts, elapsed, loopErr := closedLoopFederation(r, cfg.fabricBenchConfig, rec)
		s := r.Stats()
		if err := r.Close(context.Background()); err != nil && loopErr == nil {
			loopErr = err
		}
		if loopErr != nil {
			return loopErr
		}

		res := &results[i]
		res.Clients = cfg.Clients
		res.NumCPU = runtime.NumCPU()
		res.GOMAXPROCS = runtime.GOMAXPROCS(0)
		res.DurationSec = elapsed.Seconds()
		res.Offered = s.Offered
		res.Granted = s.Granted
		res.Rejected = s.Rejected
		res.Failovers = s.Failovers
		res.GrantsPerSec = float64(counts.admitted) / elapsed.Seconds()
		res.Schedulability = counts.schedulability()
		res.Imbalance = s.Imbalance
		res.Admit = rec.dist()
		perPlane := make([]string, len(s.Planes))
		for j, ps := range s.Planes {
			res.PerPlane = append(res.PerPlane, planeGrants{Name: ps.Name, Grants: ps.Grants})
			perPlane[j] = fmt.Sprintf("%s=%d", ps.Name, ps.Grants)
		}
		imb := "inf"
		if res.Imbalance > 0 {
			imb = fmt.Sprintf("%.2f", res.Imbalance)
		}
		fmt.Fprintf(out, "  planes=%d policy=%-12s grants/sec %8.0f  schedulability %.3f  failovers %d\n",
			res.Planes, res.Policy, res.GrantsPerSec, res.Schedulability, res.Failovers)
		fmt.Fprintf(out, "    per-plane grants %s  imbalance %s  admit us p50=%.1f p99=%.1f\n",
			strings.Join(perPlane, " "), imb, res.Admit.AdmitP50us, res.Admit.AdmitP99us)
	}
	if cfg.JSONPath != "" {
		f, err := os.Create(cfg.JSONPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.JSONPath)
	}
	return nil
}

// splitList splits a comma-separated flag into trimmed non-empty parts.
func splitList(s string) []string {
	var parts []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// parsePlaneCounts parses the -planes flag: comma-separated counts.
func parsePlaneCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("federation bench: plane count %q: %w", part, err)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
