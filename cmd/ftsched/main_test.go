package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestMakeScheduler(t *testing.T) {
	// Pre-registry names keep working through the spec aliases, and the
	// full grammar is available.
	for _, name := range []string{
		"level-wise", "local-random", "local-greedy", "optimal",
		"level-wise,policy=random,order=shuffle,rollback",
		"backtrack,depth=4", "stale,window=8", "parallel,mode=racy,workers=2",
	} {
		s, err := makeScheduler(name, false)
		if err != nil || s == nil {
			t.Errorf("makeScheduler(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := makeScheduler("nope", false); err == nil {
		t.Error("unknown scheduler accepted")
	}
	// Near-miss errors carry a suggestion from the registry.
	if _, err := makeScheduler("levle-wise", false); err == nil ||
		!strings.Contains(err.Error(), "did you mean level-wise") {
		t.Errorf("near-miss spec error = %v, want a level-wise suggestion", err)
	}
	s, err := makeScheduler("level-wise", true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "level-wise/rollback" {
		t.Errorf("rollback option not applied: %q", s.Name())
	}
	// -rollback must not duplicate a flag the spec already carries.
	if s, err = makeScheduler("level-wise,rollback", true); err != nil || s.Name() != "level-wise/rollback" {
		t.Errorf("rollback dedup: %v, %v", s, err)
	}
}

func TestListEngines(t *testing.T) {
	var buf bytes.Buffer
	listEngines(&buf)
	out := buf.String()
	for _, want := range []string{"level-wise", "local", "backtrack", "stale", "optimal", "parallel", "example:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestFindPattern(t *testing.T) {
	p, err := findPattern("bit-reversal")
	if err != nil || p.String() != "bit-reversal" {
		t.Errorf("findPattern = %v, %v", p, err)
	}
	if _, err := findPattern("nope"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	if err := run(3, 4, 4, "level-wise", "random-permutation", 3, 1, false, true, true, false); err != nil {
		t.Fatal(err)
	}
	if err := run(2, 16, 16, "optimal", "transpose", 1, 1, false, false, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(0, 4, 4, "level-wise", "random-permutation", 1, 1, false, false, false, false); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run(3, 4, 4, "nope", "random-permutation", 1, 1, false, false, false, false); err == nil {
		t.Error("bad scheduler accepted")
	}
	if err := run(3, 4, 4, "level-wise", "nope", 1, 1, false, false, false, false); err == nil {
		t.Error("bad pattern accepted")
	}
	// Structural mismatch: transpose needs a square node count.
	if err := run(3, 2, 2, "level-wise", "transpose", 1, 1, false, false, false, false); err == nil {
		t.Error("transpose on 8 nodes accepted")
	}
}

// TestRunJSON captures stdout and checks -json emits one decodable
// object with the batch-vs-serving shared field vocabulary.
func TestRunJSON(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(3, 4, 4, "level-wise", "random-permutation", 2, 1, true, false, false, true)
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	var s summary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		t.Fatalf("stdout is not one JSON object: %v", err)
	}
	if s.Scheduler != "level-wise/rollback" || s.Nodes != 64 || s.Trials != 2 {
		t.Errorf("summary %+v", s)
	}
	if s.Offered != s.Granted+s.Rejected {
		t.Errorf("offered %d != granted %d + rejected %d", s.Offered, s.Granted, s.Rejected)
	}
	if s.RatioMean <= 0 || s.RatioMean > 1 {
		t.Errorf("ratio mean %v", s.RatioMean)
	}
}

func TestRunTraceUnsupported(t *testing.T) {
	if err := run(2, 4, 4, "optimal", "random-permutation", 1, 1, false, false, true, false); err == nil {
		t.Error("trace on optimal accepted")
	}
	if err := run(2, 4, 4, "local-random", "random-permutation", 1, 1, false, false, true, false); err != nil {
		t.Errorf("trace on local failed: %v", err)
	}
}

// TestTraceGolden pins the whole -trace report, denial lines included,
// for the Level-wise traversals and the local baselines. The testdata
// files are the command's stdout for the same arguments.
func TestTraceGolden(t *testing.T) {
	for _, c := range []struct {
		file     string
		levels   int
		spec     string
		trials   int
		rollback bool
	}{
		{"trace_level-wise.txt", 3, "level-wise", 1, false},
		{"trace_level-wise_rollback.txt", 3, "level-wise", 1, true},
		{"trace_request-major.txt", 3, "level-wise,traversal=request-major", 1, false},
		{"trace_request-major_rollback.txt", 3, "level-wise,traversal=request-major", 1, true},
		{"trace_deep_level-wise.txt", 4, "level-wise", 2, false},
		{"trace_deep_request-major_rollback.txt", 4, "level-wise,traversal=request-major,rollback", 2, false},
		{"trace_local-greedy.txt", 3, "local-greedy", 1, false},
		{"trace_local-random-retries.txt", 3, "local,policy=random,retries=2", 1, false},
	} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.file)
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error {
				return run(c.levels, 4, 4, c.spec, "random-permutation", c.trials, 1, c.rollback, false, true, false)
			})
			if got != string(want) {
				t.Errorf("-trace output differs from testdata/%s:\ngot:\n%s\nwant:\n%s", c.file, got, want)
			}
		})
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}
