package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWriteFilesCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	if err := writeFiles(dir, ".csv", 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeFiles(dir, ".json", 3, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9a.csv", "fig9b.csv", "fig9c.csv", "fig9d.csv", "table1.csv",
		"fig9a.json", "table1.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
		if strings.HasSuffix(name, ".json") && !strings.Contains(string(data), `"rows"`) {
			t.Fatalf("%s not JSON: %.60s", name, data)
		}
	}
}

func TestWriteFilesBadDir(t *testing.T) {
	if err := writeFiles("/dev/null/subdir", ".csv", 1, 1); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}

// churnTable runs churnBench and returns its output and the churn/epoch
// column by discipline.
func churnTable(t *testing.T, cfg churnBenchConfig) (string, map[string]float64) {
	t.Helper()
	var out strings.Builder
	if err := churnBench(&out, cfg); err != nil {
		t.Fatal(err)
	}
	churn := map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] != "discipline" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			churn[f[0]] = v
		}
	}
	return out.String(), churn
}

// TestChurnBenchDeterministic: the -churn table is a pure function of
// the seed, and delta epochs move fewer routes than batch replay.
func TestChurnBenchDeterministic(t *testing.T) {
	cfg := churnBenchConfig{Levels: 3, Children: 4, Parents: 4,
		Rate: 8, Life: 4, Epochs: 40, Reuse: 2, Seed: 1}
	first, churn := churnTable(t, cfg)
	if again, _ := churnTable(t, cfg); again != first {
		t.Errorf("same seed, different output:\n%s\n---\n%s", first, again)
	}
	other := cfg
	other.Seed = 2
	if diff, _ := churnTable(t, other); diff == first {
		t.Errorf("seeds 1 and 2 print the same table:\n%s", first)
	}
	if len(churn) != 3 {
		t.Fatalf("want 3 disciplines, parsed %v from:\n%s", churn, first)
	}
	if inc, replay := churn["incremental"], churn["batch-replay"]; !(inc > 0 && inc < replay) {
		t.Errorf("churn/epoch incremental %.2f, batch-replay %.2f: want 0 < incremental < replay", inc, replay)
	}
}

// TestChurnE20Golden pins E20's table byte for byte: the -churn command
// EXPERIMENTS.md quotes prints testdata/churn_e20_seed<S>.txt for seeds
// 1, 2 and 7 (at seed 1, churn/epoch 120.97 / 30.69 / 30.68, ratio
// 3.94x).
func TestChurnE20Golden(t *testing.T) {
	for _, seed := range []int{1, 2, 7} {
		fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
		o := bindFlags(fs)
		args := strings.Fields(fmt.Sprintf("-churn -churn-rate 16 -churn-life 8 -churn-epochs 200 -churn-reuse 4 -seed %d", seed))
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := churnBench(&out, o.churn()); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("churn_e20_seed%d.txt", seed)))
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("seed %d:\n got:\n%s\nwant:\n%s", seed, out.String(), want)
		}
	}
}

// TestExperimentsCommandsParse: every `go run ./cmd/ftbench …` command
// EXPERIMENTS.md quotes — an indented block joined across its trailing
// backslashes, or an inline span up to its closing backtick — parses
// against ftbench's flag set with no argument left over.
func TestExperimentsCommandsParse(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/ftbench"
	text := strings.ReplaceAll(string(doc), "\\\n", " ")
	n := 0
	for rest := text; ; n++ {
		i := strings.Index(rest, prefix)
		if i < 0 {
			break
		}
		rest = rest[i+len(prefix):]
		cmd := rest
		if j := strings.IndexAny(cmd, "`|>;"); j >= 0 {
			cmd = cmd[:j]
		}
		if j := strings.Index(cmd, "\n\n"); j >= 0 {
			cmd = cmd[:j]
		}
		fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bindFlags(fs)
		args := strings.Fields(cmd)
		if err := fs.Parse(args); err != nil {
			t.Errorf("%s %s: %v", prefix, strings.Join(args, " "), err)
		} else if left := fs.Args(); len(left) > 0 {
			t.Errorf("%s %s: arguments %q left over", prefix, strings.Join(args, " "), left)
		}
	}
	if n == 0 {
		t.Fatalf("EXPERIMENTS.md quotes no %q command", prefix)
	}
}

func TestChurnBenchValidation(t *testing.T) {
	base := churnBenchConfig{Levels: 2, Children: 4, Parents: 4, Rate: 4, Life: 2, Epochs: 4}
	for name, mutate := range map[string]func(*churnBenchConfig){
		"rate 0":         func(c *churnBenchConfig) { c.Rate = 0 },
		"life 0":         func(c *churnBenchConfig) { c.Life = 0 },
		"negative reuse": func(c *churnBenchConfig) { c.Reuse = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if err := churnBench(os.Stdout, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
