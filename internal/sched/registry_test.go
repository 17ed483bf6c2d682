package sched

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parsched"
)

func TestParseNames(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"level-wise", "level-wise"},
		{"level-wise,rollback", "level-wise/rollback"},
		{"level-wise,policy=random,order=shuffle,rollback", "level-wise/random/rollback"},
		{"level-wise,traversal=request-major", "level-wise/request-major"},
		{"local", "local/first-fit"},
		{"local-greedy", "local/first-fit"},
		{"local-random", "local/random"},
		{"local,policy=random,retries=2", "local/random/retry"},
		{"backtrack,depth=4", "level-wise/backtrack-4"},
		{"stale,window=16", "level-wise/stale-16"},
		{"optimal", "optimal"},
		{"parallel,mode=racy,workers=8", "parallel-level-wise/racy/w8"},
		{"parallel,workers=2", "parallel-level-wise/deterministic/w2"},
		{" level-wise , rollback ", "level-wise/rollback"}, // whitespace tolerated
		{"levelwise,reuse-cost=4", "level-wise/reuse-cost=4"},
		{"level-wise,rollback,reuse-cost=4", "level-wise/rollback/reuse-cost=4"},
	}
	for _, c := range cases {
		e, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if e.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, e.Name(), c.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"", "empty scheduler spec"},
		{"levle-wise", "did you mean level-wise"},
		{"lcoal", "did you mean local"},
		{"frobnicate", "registered:"},
		{"level-wise,policy=bogus", "invalid policy"},
		{"level-wise,order=bogus", "invalid order"},
		{"level-wise,traversal=bogus", "invalid traversal"},
		{"level-wise,window=3", `unknown parameter "window"`},
		{"local,depth=2", `unknown parameter "depth"`},
		{"backtrack,depth=x", "must be an integer"},
		{"backtrack,depth=-1", "must be >= 0"},
		{"stale,window=0", "must be >= 1"},
		{"local,retries=1000000000", "must be 0..64"},
		{"parallel,mode=chaotic", "invalid mode"},
		{"parallel,workers=-2", "must be >= 0"},
		{"parallel,steal", "steal requires mode=shard"},
		{"parallel,mode=shard,shard-level=x", "must be an integer"},
		{"level-wise,policy=random,policy=first-fit", "duplicate parameter"},
		{"optimal,rollback", `unknown parameter "rollback"`},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.spec, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.spec, err.Error(), c.wantSub)
		}
	}
}

// parseErrorTexts are the rejections whose full text is contract: the CLI
// (-fabric-scheduler) and ftserve surface them verbatim, so the whole
// message is pinned, not just the substrings above. FuzzParse starts from
// their specs.
func parseErrorTexts() []struct{ spec, want string } {
	registered := strings.Join(FamilyNames(), ", ")
	return []struct{ spec, want string }{
		{"", "sched: empty scheduler spec (try one of: " + registered + ")"},
		{"   ", "sched: empty scheduler spec (try one of: " + registered + ")"},
		{"optimol", `sched: unknown scheduler "optimol" (did you mean optimal?) — registered: ` + registered},
		{"stael", `sched: unknown scheduler "stael" (did you mean stale?) — registered: ` + registered},
		{"level-wise,policy=random,policy=first-fit", `sched: level-wise: duplicate parameter "policy"`},
		{"stale,window=4,window=8", `sched: stale: duplicate parameter "window"`},
		// The shard-mode parameter grammar, pinned verbatim: bad mode
		// values list every valid mode, steal and shard-level are
		// rejected outside mode=shard, and duplicate keys stay caught
		// before the factory runs.
		{"parallel,mode=shardd", `sched: parallel: invalid mode="shardd" (deterministic, racy or shard)`},
		{"parallel,mode=shard,mode=shard", `sched: parallel: duplicate parameter "mode"`},
		{"parallel,steal", `sched: parallel: steal requires mode=shard`},
		{"parallel,mode=racy,steal", `sched: parallel: steal requires mode=shard`},
		{"parallel,shard-level=1", `sched: parallel: shard-level requires mode=shard`},
		{"parallel,mode=shard,shard-level=0", `sched: parallel: invalid shard-level=0 (must be >= 1)`},
		// Valid-key lists are sorted so the message is deterministic and
		// stable under registry reordering.
		{"parallel,mode=shard,shards=4", `sched: parallel: unknown parameter "shards" (valid: mode, order, policy, rollback, seed, shard-level, steal, workers)`},
		{"level-wise,window=3", `sched: level-wise: unknown parameter "window" (valid: order, policy, reuse-cost, rollback, seed, traversal)`},
		// The reuse-cost grammar: it must be positive and replaces the
		// policy axis. The removed incremental flag is refused by name,
		// with or without reuse-cost, and the message points at reuse-cost.
		{"level-wise,reuse-cost=0", `sched: level-wise: invalid reuse-cost=0 (must be >= 1)`},
		{"level-wise,reuse-cost=2,policy=random", `sched: level-wise: reuse-cost replaces the port policy (remove policy=random)`},
		{"level-wise,incremental", incrementalRemoved},
		{"level-wise,rollback,incremental,reuse-cost=4", incrementalRemoved},
	}
}

const incrementalRemoved = "sched: level-wise: the incremental flag was removed: held circuits always " +
	"stay in the link state, so name reuse-cost=K alone for the reuse-aware pick"

func TestParseErrorTextExact(t *testing.T) {
	for _, c := range parseErrorTexts() {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q): expected error, got nil", c.spec)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("Parse(%q) error text:\n got %q\nwant %q", c.spec, err.Error(), c.want)
		}
	}
}

func TestAliasParamsCompose(t *testing.T) {
	// Alias expansion must still accept (and validate) extra parameters.
	e, err := Parse("local-random,retries=3")
	if err != nil {
		t.Fatal(err)
	}
	l, ok := e.Unwrap().(*core.Local)
	if !ok {
		t.Fatalf("local-random unwraps to %T", e.Unwrap())
	}
	if l.Opts.Policy != core.RandomFit || l.Opts.Retries != 3 {
		t.Fatalf("local-random,retries=3 parsed as %+v", l.Opts)
	}
	// An explicit parameter after the alias wins over the expansion? No:
	// that would be a duplicate — the grammar rejects it loudly rather
	// than guessing.
	if _, err := Parse("local-random,policy=first-fit"); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("alias + conflicting policy: got %v, want duplicate-parameter error", err)
	}
}

func TestUnwrapExposesConcreteTypes(t *testing.T) {
	if _, ok := MustParse("level-wise,rollback").Unwrap().(*core.LevelWise); !ok {
		t.Fatal("level-wise does not unwrap to *core.LevelWise")
	}
	pe, ok := MustParse("parallel,workers=4,mode=racy").Unwrap().(*parsched.Engine)
	if !ok {
		t.Fatal("parallel does not unwrap to *parsched.Engine")
	}
	if pe.Workers() != 4 || pe.Mode() != parsched.Racy {
		t.Fatalf("parallel engine config: workers=%d mode=%v", pe.Workers(), pe.Mode())
	}
	se, ok := MustParse("parallel,mode=shard,workers=6,steal,shard-level=1").Unwrap().(*parsched.Engine)
	if !ok {
		t.Fatal("parallel,mode=shard does not unwrap to *parsched.Engine")
	}
	if se.Mode() != parsched.Shard || se.Name() != "parallel-level-wise/shard+steal/w6" {
		t.Fatalf("shard engine config: mode=%v name=%q", se.Mode(), se.Name())
	}
}

func TestListMetadata(t *testing.T) {
	infos := List()
	if len(infos) < 6 {
		t.Fatalf("List returned %d families, want >= 6", len(infos))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		if info.Family == "" || info.Summary == "" || info.Example == "" {
			t.Errorf("family %+v missing metadata", info)
		}
		if seen[info.Family] {
			t.Errorf("duplicate family %q", info.Family)
		}
		seen[info.Family] = true
		// Every advertised example must parse.
		if _, err := Parse(info.Example); err != nil {
			t.Errorf("example %q does not parse: %v", info.Example, err)
		}
	}
	for _, want := range []string{"level-wise", "local", "backtrack", "stale", "optimal", "parallel"} {
		if !seen[want] {
			t.Errorf("family %q not registered", want)
		}
	}
}

func TestSuggest(t *testing.T) {
	// "levelwise" is a registered alias now, so it suggests itself first;
	// the canonical family must still be offered.
	if got := Suggest("levelwiz"); len(got) == 0 || (got[0] != "level-wise" && got[0] != "levelwise") {
		t.Fatalf("Suggest(levelwiz) = %v", got)
	}
	if got := Suggest("zzzzzzzzzzzz"); len(got) != 0 {
		t.Fatalf("Suggest(zzzz...) = %v, want none", got)
	}
}

func TestWrapIdempotent(t *testing.T) {
	e := MustParse("level-wise")
	if Wrap(e) != e {
		t.Fatal("Wrap of an Engine must return it unchanged")
	}
}
