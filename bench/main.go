// Command bench is the one benchmark for the whole stack: four workloads
// from batch Level-wise scheduling to loopback HTTP, the end-to-end metrics
// a user of the system feels, and a per-layer budget from a separate traced
// run. BENCHMARK.json at the repository root declares it; README.md in this
// directory explains how to read it.
//
//	bash bench/run.sh --workload fabric_churn --seed 1 --seconds 20 --trace 0
//	    one run of one workload; the last line of stdout is the result
//	    object the driver reads (correct, attempted, failed, metrics)
//	bash bench/run.sh -seed 1            all four workloads, untraced, as a table
//	bash bench/run.sh -traced -seed 1    all four traced: per-layer metrics, stacked budgets
//	bash bench/run.sh -smoke             all four for 1 s each, checks only
//	bash bench/run.sh -check a.jsonl b.jsonl
//	    apply BENCHMARK.json's bounds to two files written with -out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is the block every result carries: a number without it cannot
// be compared with another.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func readEnvironment(root string) environment {
	env := environment{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GitRev: "unknown", CPUModel: "unknown"}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitRev = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(b))
	}
	return env
}

// runner holds what every run in this process shares.
type runner struct {
	root       string // the checkout: the directory holding cmd/ftserve
	ftserveBin string
	env        environment
	replays    map[string]float64
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ftserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no cmd/ftserve above the working directory")
		}
		dir = parent
	}
}

// prepare is the untimed step before any run: it builds the ftserve that
// http_rt and the ftserve replays spawn, from this checkout's source, so a
// run can never measure a stale binary.
func prepare() (*runner, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	r := &runner{root: root, env: readEnvironment(root),
		ftserveBin: filepath.Join(root, ".bench_build", "bin", "ftserve")}
	cmd := exec.Command("go", "build", "-o", r.ftserveBin, "./cmd/ftserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/ftserve: %v\n%s", err, out)
	}
	return r, nil
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (default: all four, as a table)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: decides the generated requests and nothing else")
	flag.IntVar(&o.seconds, "seconds", 20, "length of one measured run")
	flag.IntVar(&traceFlag, "trace", 0, "1: the traced run (per-layer metrics); 0: end-to-end metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	smoke := flag.Bool("smoke", false, "all four workloads for 1 s each: output checks only, no bounds")
	check := flag.Bool("check", false, "compare two -out files under BENCHMARK.json's bounds: -check a.jsonl b.jsonl")
	out := flag.String("out", "", "append every run's full record to this file, one JSON object per line")
	flag.Parse()
	o.trace = traceFlag == 1 || *traced

	if *check {
		if flag.NArg() != 2 {
			fatal(errors.New("-check needs two result files"))
		}
		root, err := findRoot()
		if err != nil {
			fatal(err)
		}
		ok, err := checkFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	r, err := prepare()
	if err != nil {
		fatal(err)
	}

	if o.workload != "" {
		// The driver's protocol: one workload, one result object last.
		rec, err := r.runWorkload(o)
		if err != nil {
			fatal(err)
		}
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
		report(os.Stderr, rec)
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted uint64            `json:"attempted"`
			Failed    uint64            `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}

	if *smoke {
		o.seconds = 1
	}
	fmt.Printf("environment: %d CPUs, %s, rev %s, %s, seed %d, loadavg %s\n",
		r.env.NumCPU, r.env.GoVersion, r.env.GitRev, r.env.CPUModel, o.seed, r.env.LoadAvg)
	allCorrect := true
	for _, name := range workloadNames {
		o.workload = name
		rec, err := r.runWorkload(o)
		if err != nil {
			fatal(err)
		}
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
		report(os.Stdout, rec)
		allCorrect = allCorrect && rec.Correct
	}
	if !allCorrect {
		fmt.Println("FAIL: at least one workload failed its output checks")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func appendRecord(path string, rec *record) error {
	if path == "" {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints one run for a person: every metric by name with its unit,
// the whole-window medians beside the best-decile values, the check
// outcome, and for a traced run the stacked budget and the span self times.
func report(w *os.File, rec *record) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "\n== %s (%s; seed %d, %d s, GOMAXPROCS %d) ==\n", rec.Workload, mode, rec.Seed, rec.Seconds, rec.Env.GOMAXPROCS)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if med, ok := rec.Info[n+"_median"]; ok {
			line += fmt.Sprintf(" (median slice %.6g)", med)
		}
		if q := rec.Info["connect_tail_quantile"]; n == "connect_p99_us" && q != 0.99 {
			line += fmt.Sprintf(" — the p%.0f on this workload", 100*q)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (attempted %d, failed %d)\n", "fail_frac", rec.Info["fail_frac"], "ratio", rec.Attempted, rec.Failed)
	fmt.Fprintf(w, "  %-34s %14.6g %-6s\n", "allocs_per_req", rec.Info["allocs_per_req"], "1/req")
	fmt.Fprintf(w, "  slices %v, fewest operations in a slice %v\n", rec.Info["slices"], rec.Info["min_slice_ops"])
	if len(rec.budget) > 0 {
		fmt.Fprintf(w, "  stacked budget of one Connect (p50 %.1f us):\n", sumBudget(rec.budget))
		for _, row := range rec.budget {
			fmt.Fprintf(w, "    %-48s %9.2f us  %5.1f %%\n", row.layer, row.us, 100*row.us/sumBudget(rec.budget))
		}
	}
	for _, s := range rec.spans {
		fmt.Fprintf(w, "  span %-22s n=%-7d mean %9.2f us, self %9.2f us\n", s.Name, s.Count,
			float64(s.Total)/float64(s.Count)/1e3, float64(s.Self)/float64(s.Count)/1e3)
	}
	if rec.Correct {
		fmt.Fprintln(w, "  output checks: ok")
	} else {
		fmt.Fprintln(w, "  output checks: FAILED")
		for _, p := range rec.Problems {
			fmt.Fprintln(w, "    "+p)
		}
	}
}

func sumBudget(rows []budgetRow) float64 {
	var s float64
	for _, r := range rows {
		s += r.us
	}
	return s
}
