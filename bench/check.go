package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// -check applies BENCHMARK.json's bounds to two files of run records (the
// base first): per (workload, metric) both medians, their ratio, each
// side's run-to-run spread, and a verdict. A metric whose spread exceeds
// its bound is unresolved — the runs cannot tell a change of that size —
// and a median worse than the base by more than the bound is a breach.

// benchmarkFile is the part of BENCHMARK.json -check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], &rec)
		}
	}
	return byWorkload, sc.Err()
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the acceptance rule this mirrors defines spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := max(1, min(int(math.Floor(pos)), len(s)-1))
		frac := pos - float64(j) // past the ends this extrapolates, as Python does
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// there are too few runs to have one.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// worseBy is how much worse b is than base, as a share of base, in the
// metric's own direction; negative when b is better.
func worseBy(base, b float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - b) / base
	}
	return (b - base) / base
}

func checkFiles(out io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-13s %-15s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "base median", "new median", "new/base", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range workloadNames {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(out, "%-13s missing from one file (%d and %d runs)\n", wl, len(ra), len(rb))
			ok = false
			continue
		}
		for _, side := range [][]*record{ra, rb} {
			for _, rec := range side {
				if !rec.Correct || rec.Failed != 0 {
					fmt.Fprintf(out, "%-13s a run at seed %d failed its checks (failed operations: %d)\n", wl, rec.Seed, rec.Failed)
					ok = false
				}
			}
		}
		for _, def := range bf.EndToEnd {
			va, vb := values(ra, def.Name), values(rb, def.Name)
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worseBy(ma, mb, def.Better) > def.Bound:
				verdict = "BREACH"
				ok = false
			case sa > def.Bound || sb > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-13s %-15s %14.6g %14.6g %9.4f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, def.Name, ma, mb, mb/ma, 100*sa, 100*sb, 100*def.Bound, verdict)
		}
	}
	return ok, nil
}

func values(recs []*record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
