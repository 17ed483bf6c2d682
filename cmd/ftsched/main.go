// Command ftsched schedules one workload on one fat tree and prints the
// outcome — a workbench for exploring the schedulers interactively.
//
// Usage:
//
//	ftsched [-levels 3] [-children 4] [-parents 4]
//	        [-scheduler <spec>] [-list]
//	        [-pattern random-permutation|uniform-random|hotspot|bit-reversal|
//	                  bit-complement|transpose|shuffle|tornado|neighbor]
//	        [-trials 1] [-seed 1] [-rollback] [-v] [-json]
//
// Scheduler specs follow internal/sched's grammar
// ("family,key=value,flag" — e.g. "level-wise,policy=random,rollback",
// "backtrack,depth=4", "parallel,mode=racy,workers=8"); -list prints
// every registered engine with its parameters and exits. With -v every
// request's outcome (path or failure level) is listed. With -json the
// run summary is emitted as a single JSON object instead of the
// human-readable report — the same machine-readable style as ftserve's
// GET /stats, so batch and serving results can share tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	levels := flag.Int("levels", 3, "switch levels l")
	children := flag.Int("children", 4, "children per switch m")
	parents := flag.Int("parents", 4, "parents per switch w")
	schedSpec := flag.String("scheduler", "level-wise", "scheduler spec (see -list)")
	list := flag.Bool("list", false, "print the registered scheduler engines and exit")
	patName := flag.String("pattern", "random-permutation", "workload pattern")
	trials := flag.Int("trials", 1, "independent workloads to schedule")
	seed := flag.Int64("seed", 1, "workload seed")
	rollback := flag.Bool("rollback", false, "shorthand for appending ,rollback to the scheduler spec")
	verbose := flag.Bool("v", false, "print per-request outcomes")
	trace := flag.Bool("trace", false, "print every denied request with the level and side of its conflict")
	jsonOut := flag.Bool("json", false, "emit the run summary as one JSON object")
	flag.Parse()

	if *list {
		listEngines(os.Stdout)
		return
	}
	if err := run(*levels, *children, *parents, *schedSpec, *patName, *trials, *seed, *rollback, *verbose, *trace, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "ftsched: %v\n", err)
		os.Exit(1)
	}
}

// listEngines prints the registry's menu: one line per family with its
// summary, then its parameters — sourced from internal/sched so this
// text can never drift from what Parse accepts.
func listEngines(w io.Writer) {
	fmt.Fprintln(w, "scheduler specs: family[,key=value|flag]...")
	for _, info := range sched.List() {
		name := info.Family
		if len(info.Aliases) > 0 {
			name += " (alias " + strings.Join(info.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "\n  %-14s %s\n", name, info.Summary)
		for _, p := range info.Params {
			fmt.Fprintf(w, "      %-10s %s\n", p.Key, p.Doc)
		}
		fmt.Fprintf(w, "      example: %s\n", info.Example)
	}
}

// summary is the -json output: one object per run, aligned with the
// counter vocabulary of ftserve's /stats (granted/rejected/utilization).
type summary struct {
	Scheduler   string        `json:"scheduler"`
	Pattern     string        `json:"pattern"`
	Tree        string        `json:"tree"`
	Nodes       int           `json:"nodes"`
	Levels      int           `json:"levels"`
	Trials      int           `json:"trials"`
	Seed        int64         `json:"seed"`
	RatioMean   float64       `json:"ratio_mean"`
	RatioMin    float64       `json:"ratio_min"`
	RatioMax    float64       `json:"ratio_max"`
	Granted     int           `json:"granted"`  // last batch
	Rejected    int           `json:"rejected"` // last batch
	Offered     int           `json:"offered"`  // last batch
	Utilization float64       `json:"utilization"`
	Ops         core.Counters `json:"ops"` // last batch operation counts
	// Host parallelism at run time, so throughput numbers carry the
	// hardware context they were measured under.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// makeScheduler resolves a spec through the registry. The -rollback
// shorthand appends the flag unless the spec already carries it.
func makeScheduler(spec string, rollback bool) (sched.Engine, error) {
	if rollback && !hasToken(spec, "rollback") {
		spec += ",rollback"
	}
	return sched.Parse(spec)
}

func hasToken(spec, want string) bool {
	for _, tok := range strings.Split(spec, ",") {
		if strings.TrimSpace(tok) == want {
			return true
		}
	}
	return false
}

func findPattern(name string) (traffic.Pattern, error) {
	for p := traffic.RandomPermutation; p <= traffic.Neighbor; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q", name)
}

func run(levels, children, parents int, schedSpec, patName string, trials int, seed int64, rollback, verbose, trace, jsonOut bool) error {
	tree, err := topology.New(levels, children, parents)
	if err != nil {
		return err
	}
	eng, err := makeScheduler(schedSpec, rollback)
	if err != nil {
		return err
	}
	// -trace reports every denial from the batch's Outcomes. phase names
	// the step an up-side denial failed: the Level-wise AND, or the local
	// schedulers' climb. byLevel lists a level-major Level-wise batch's
	// denials level by level, as its sweep meets them.
	var traceOut io.Writer
	phase, byLevel := "", false
	if trace {
		switch s := eng.Unwrap().(type) {
		case *core.LevelWise:
			phase, byLevel = "combined", s.Opts.Traversal == core.LevelMajor
		case *core.Local:
			phase = "up"
		default:
			return fmt.Errorf("-trace is not supported by scheduler %q", schedSpec)
		}
		traceOut = os.Stdout
		if jsonOut {
			traceOut = os.Stderr // keep stdout a single JSON object
		}
	}
	pattern, err := findPattern(patName)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Println(tree)
	}

	gen := traffic.NewGenerator(tree.Nodes(), seed)
	st := linkstate.New(tree)
	sc := core.NewScratch()
	ratios := make([]float64, 0, trials)
	var last *core.Result
	for trial := 0; trial < trials; trial++ {
		batch, err := gen.Batch(pattern)
		if err != nil {
			return err
		}
		st.Reset()
		res := eng.ScheduleInto(st, batch, sc)
		if err := core.Verify(tree, res); err != nil {
			return err
		}
		if traceOut != nil {
			printDenials(traceOut, res, tree.Parents(), phase, byLevel)
		}
		ratios = append(ratios, res.Ratio())
		last = res
	}

	s := stats.Summarize(ratios)
	if jsonOut {
		return json.NewEncoder(os.Stdout).Encode(summary{
			Scheduler:   last.Scheduler,
			Pattern:     pattern.String(),
			Tree:        tree.String(),
			Nodes:       tree.Nodes(),
			Levels:      tree.Levels(),
			Trials:      trials,
			Seed:        seed,
			RatioMean:   s.Mean,
			RatioMin:    s.Min,
			RatioMax:    s.Max,
			Granted:     last.Granted,
			Rejected:    last.Total - last.Granted,
			Offered:     last.Total,
			Utilization: st.Utilization(),
			Ops:         last.Ops,
			NumCPU:      runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		})
	}
	fmt.Printf("scheduler %s on %s x%d: schedulability %s (min %s, max %s)\n",
		last.Scheduler, pattern, trials,
		report.Percent(s.Mean), report.Percent(s.Min), report.Percent(s.Max))
	fmt.Printf("last batch: %d/%d granted, link utilization %s\n",
		last.Granted, last.Total, report.Percent(st.Utilization()))
	for h := 0; h < tree.LinkLevels(); h++ {
		up, down := st.LevelOccupancy(h)
		capacity := tree.LinksAt(h)
		fmt.Printf("  level %d  up %s %s   down %s %s\n", h,
			report.Bar(float64(up)/float64(capacity), 16), report.Percent(float64(up)/float64(capacity)),
			report.Bar(float64(down)/float64(capacity), 16), report.Percent(float64(down)/float64(capacity)))
	}

	if verbose {
		for i, o := range last.Outcomes {
			if o.Granted {
				ports := make([]string, len(o.Ports))
				for k, p := range o.Ports {
					ports[k] = fmt.Sprint(p)
				}
				fmt.Printf("  #%-4d %4d → %-4d H=%d granted ports=[%s]\n", i, o.Src, o.Dst, o.H, strings.Join(ports, " "))
			} else {
				where := "up"
				if o.FailDown {
					where = "down"
				}
				fmt.Printf("  #%-4d %4d → %-4d H=%d FAILED at level %d (%s)\n", i, o.Src, o.Dst, o.H, o.FailLevel, where)
			}
		}
	}
	return nil
}

// printDenials writes one line per denied request of res, in batch order,
// or sorted by failure level first when byLevel is set. An up-side denial
// — the Level-wise AND of Ulink(h, σ) and the mirror Dlink(h, δ), or a
// local scheduler's Ulink(h, σ) alone — is named by phase; its row came up
// empty, so its avail column is w zeros. A local down-side denial found
// the forced Dlink channel taken; it has no column.
func printDenials(w io.Writer, res *core.Result, width int, phase string, byLevel bool) {
	var denied []core.Outcome
	for _, o := range res.Outcomes {
		if !o.Granted {
			denied = append(denied, o)
		}
	}
	if byLevel {
		sort.SliceStable(denied, func(a, b int) bool { return denied[a].FailLevel < denied[b].FailLevel })
	}
	for _, o := range denied {
		side, avail := phase, " avail="+strings.Repeat("0", width)
		if o.FailDown {
			side, avail = "down", ""
		}
		fmt.Fprintf(w, "  trace: %s %d→%d level %d %s%s: denied\n", res.Scheduler, o.Src, o.Dst, o.FailLevel, side, avail)
	}
}
