package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/optimal"
	"repro/internal/parsched"
)

// ParamDoc documents one parameter a family accepts.
type ParamDoc struct {
	Key string // "policy", "workers", "rollback", ...
	Doc string // values and default, one line
}

// Info is a registered family's self-description, for -list output and
// error suggestions.
type Info struct {
	Family  string
	Aliases []string
	Summary string // one line, shown next to the family name
	Params  []ParamDoc
	Example string // a representative full spec
}

// family couples an Info with its validated factory.
type family struct {
	info  Info
	build func(p *params) (core.Scheduler, error)
}

// sharedOpts parses the option keys the Options-driven families
// (level-wise, local, parallel) have in common.
func sharedOpts(p *params) (core.Options, error) {
	var opts core.Options
	switch v := p.value("policy", "first-fit"); v {
	case "first-fit":
		opts.Policy = core.FirstFit
	case "random":
		opts.Policy = core.RandomFit
	case "least-loaded":
		opts.Policy = core.LeastLoaded
	default:
		return opts, fmt.Errorf("invalid policy=%q (first-fit, random or least-loaded)", v)
	}
	switch v := p.value("order", "natural"); v {
	case "natural":
		opts.Order = core.NaturalOrder
	case "shuffle", "shuffled":
		opts.Order = core.ShuffledOrder
	case "deepest-first":
		opts.Order = core.DeepestFirst
	default:
		return opts, fmt.Errorf("invalid order=%q (natural, shuffle or deepest-first)", v)
	}
	if seed, ok, err := p.intValue("seed"); err != nil {
		return opts, err
	} else if ok {
		opts.Rand = rand.New(rand.NewSource(int64(seed)))
	}
	return opts, nil
}

var optionParams = []ParamDoc{
	{"policy", "port choice: first-fit (default), random, least-loaded"},
	{"order", "request order: natural (default), shuffle, deepest-first"},
	{"seed", "seed for random policy/order (default: fixed seed 1)"},
}

// families is the registry. Order here is presentation order for List.
var families = []family{
	{
		info: Info{
			Family:  "level-wise",
			Aliases: []string{"levelwise"},
			Summary: "the paper's global scheduler: per-level AND of Ulink(h,σ) and Dlink(h,δ)",
			Params: append([]ParamDoc{
				{"traversal", "level-major (default, Figure 7) or request-major"},
				{"rollback", "flag: release a failed request's partial path"},
				{"incremental", "flag: delta epochs — held grants stay allocated across batches (ScheduleDeltaInto)"},
				{"reuse-cost", "score up-ports by held-circuit overlap at the parents, capped at K (requires incremental; replaces policy)"},
			}, optionParams...),
			Example: "level-wise,policy=random,order=shuffle,rollback",
		},
		build: func(p *params) (core.Scheduler, error) {
			opts, err := sharedOpts(p)
			if err != nil {
				return nil, err
			}
			switch v := p.value("traversal", "level-major"); v {
			case "level-major":
				opts.Traversal = core.LevelMajor
			case "request-major":
				opts.Traversal = core.RequestMajor
			default:
				return nil, fmt.Errorf("invalid traversal=%q (level-major or request-major)", v)
			}
			opts.Rollback = p.flag("rollback")
			opts.Incremental = p.flag("incremental")
			if n, ok, err := p.intValue("reuse-cost"); err != nil {
				return nil, err
			} else if ok {
				if !opts.Incremental {
					return nil, fmt.Errorf("reuse-cost requires the incremental flag (reuse scores held routes, which only persist across delta epochs)")
				}
				if n < 1 {
					return nil, fmt.Errorf("invalid reuse-cost=%d (must be >= 1)", n)
				}
				if opts.Policy != core.FirstFit {
					return nil, fmt.Errorf("reuse-cost replaces the port policy (remove policy=%s)", opts.Policy)
				}
				opts.ReuseCost = n
			}
			return &core.LevelWise{Opts: opts}, nil
		},
	},
	{
		info: Info{
			Family:  "local",
			Aliases: []string{"local-greedy", "local-random"},
			Summary: "the conventional adaptive baseline: climbs on local Ulink only, blind to Dlink",
			Params: append([]ParamDoc{
				{"retries", "extra randomized re-attempts after a failure (default 0, at most 64)"},
			}, optionParams...),
			Example: "local,policy=random,retries=2",
		},
		build: func(p *params) (core.Scheduler, error) {
			opts, err := sharedOpts(p)
			if err != nil {
				return nil, err
			}
			if n, ok, err := p.intValue("retries"); err != nil {
				return nil, err
			} else if ok {
				// Every retry is a whole re-walk that each denied request
				// pays, so an unbounded count is a batch that never ends.
				if n < 0 || n > 64 {
					return nil, fmt.Errorf("invalid retries=%d (must be 0..64)", n)
				}
				opts.Retries = n
			}
			return &core.Local{Opts: opts}, nil
		},
	},
	{
		info: Info{
			Family:  "backtrack",
			Summary: "level-wise with a bounded DFS: dead ends step back a level and retry",
			Params: []ParamDoc{
				{"depth", "max backtracks per request (default 1; 0 = plain level-wise)"},
			},
			Example: "backtrack,depth=4",
		},
		build: func(p *params) (core.Scheduler, error) {
			depth := 1
			if n, ok, err := p.intValue("depth"); err != nil {
				return nil, err
			} else if ok {
				if n < 0 {
					return nil, fmt.Errorf("invalid depth=%d (must be >= 0)", n)
				}
				depth = n
			}
			return &core.BacktrackLevelWise{Backtracks: depth}, nil
		},
	},
	{
		info: Info{
			Family:  "stale",
			Summary: "level-wise against a lagging Dlink snapshot, refreshed every window requests",
			Params: []ParamDoc{
				{"window", "requests between view refreshes (default 1 = always fresh)"},
			},
			Example: "stale,window=16",
		},
		build: func(p *params) (core.Scheduler, error) {
			window := 1
			if n, ok, err := p.intValue("window"); err != nil {
				return nil, err
			} else if ok {
				if n < 1 {
					return nil, fmt.Errorf("invalid window=%d (must be >= 1)", n)
				}
				window = n
			}
			return &core.StaleLevelWise{Window: window}, nil
		},
	},
	{
		info: Info{
			Family:  "optimal",
			Summary: "rearrangeable reference: bipartite edge coloring, 100% on admissible batches",
			Example: "optimal",
		},
		build: func(p *params) (core.Scheduler, error) {
			return optimal.New(), nil
		},
	},
	{
		info: Info{
			Family:  "parallel",
			Summary: "level-wise fanned across worker goroutines (deterministic, racy, or shard arbitration)",
			Params: append([]ParamDoc{
				{"mode", "deterministic (default, bit-identical to level-wise), racy (lock-free CAS), or shard (subtree-sharded, zero coordination)"},
				{"workers", "scheduling goroutines (default 0 = GOMAXPROCS)"},
				{"steal", "flag: work stealing across shard queues (mode=shard only)"},
				{"shard-level", "subtree level ℓ the shard mode partitions at (default: one below the root; mode=shard only)"},
				{"rollback", "flag: release a failed request's partial path"},
			}, optionParams...),
			Example: "parallel,mode=racy,workers=8",
		},
		build: func(p *params) (core.Scheduler, error) {
			opts, err := sharedOpts(p)
			if err != nil {
				return nil, err
			}
			opts.Rollback = p.flag("rollback")
			cfg := parsched.Config{Opts: opts}
			switch v := p.value("mode", "deterministic"); v {
			case "deterministic":
				cfg.Mode = parsched.Deterministic
			case "racy":
				cfg.Mode = parsched.Racy
			case "shard":
				cfg.Mode = parsched.Shard
			default:
				return nil, fmt.Errorf("invalid mode=%q (deterministic, racy or shard)", v)
			}
			if cfg.Steal = p.flag("steal"); cfg.Steal && cfg.Mode != parsched.Shard {
				return nil, fmt.Errorf("steal requires mode=shard")
			}
			if n, ok, err := p.intValue("shard-level"); err != nil {
				return nil, err
			} else if ok {
				if cfg.Mode != parsched.Shard {
					return nil, fmt.Errorf("shard-level requires mode=shard")
				}
				if n < 1 {
					return nil, fmt.Errorf("invalid shard-level=%d (must be >= 1)", n)
				}
				cfg.ShardLevel = n
			}
			if n, ok, err := p.intValue("workers"); err != nil {
				return nil, err
			} else if ok {
				if n < 0 {
					return nil, fmt.Errorf("invalid workers=%d (must be >= 0)", n)
				}
				cfg.Workers = n
			}
			return parsched.New(cfg), nil
		},
	},
}

// aliases expand shorthand family names into full spec prefixes, keeping
// the pre-registry scheduler names working.
var aliases = map[string]string{
	"levelwise":    "level-wise",
	"local-greedy": "local",
	"local-random": "local,policy=random",
}

// params holds a spec's parsed key=value pairs and flags, tracking which
// keys a factory consumed so leftovers are reported as errors.
type params struct {
	family string
	kv     map[string]string
	flags  map[string]bool
	used   map[string]bool
}

func (p *params) value(key, def string) string {
	p.used[key] = true
	if v, ok := p.kv[key]; ok {
		return v
	}
	return def
}

func (p *params) intValue(key string) (int, bool, error) {
	p.used[key] = true
	v, ok := p.kv[key]
	if !ok {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("invalid %s=%q (must be an integer)", key, v)
	}
	return n, true, nil
}

func (p *params) flag(name string) bool {
	p.used[name] = true
	return p.flags[name]
}

// leftover returns the keys and flags the factory never consulted.
func (p *params) leftover() []string {
	var out []string
	for k := range p.kv {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	for f := range p.flags {
		if !p.used[f] {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// validKeys lists a family's accepted parameter names, sorted — error
// text must not depend on Params declaration order, so adding a
// parameter to the middle of a family never reshuffles the message.
func validKeys(f *family) string {
	if len(f.info.Params) == 0 {
		return "none"
	}
	keys := make([]string, len(f.info.Params))
	for i, pd := range f.info.Params {
		keys[i] = pd.Key
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func lookup(name string) *family {
	for i := range families {
		if families[i].info.Family == name {
			return &families[i]
		}
	}
	return nil
}

// Parse builds the engine a spec names. Errors identify the offending
// token and, for unknown families, suggest the nearest registered specs.
func Parse(spec string) (Engine, error) {
	tokens := strings.Split(spec, ",")
	for i := range tokens {
		tokens[i] = strings.TrimSpace(tokens[i])
	}
	if len(tokens) == 0 || tokens[0] == "" {
		return nil, fmt.Errorf("sched: empty scheduler spec (try one of: %s)", strings.Join(FamilyNames(), ", "))
	}
	if exp, ok := aliases[tokens[0]]; ok {
		tokens = append(strings.Split(exp, ","), tokens[1:]...)
	}
	f := lookup(tokens[0])
	if f == nil {
		msg := fmt.Sprintf("sched: unknown scheduler %q", tokens[0])
		if near := Suggest(tokens[0]); len(near) > 0 {
			msg += fmt.Sprintf(" (did you mean %s?)", strings.Join(near, " or "))
		}
		return nil, fmt.Errorf("%s — registered: %s", msg, strings.Join(FamilyNames(), ", "))
	}
	p := &params{family: f.info.Family, kv: map[string]string{}, flags: map[string]bool{}, used: map[string]bool{}}
	for _, tok := range tokens[1:] {
		if tok == "" {
			continue
		}
		if k, v, ok := strings.Cut(tok, "="); ok {
			if _, dup := p.kv[k]; dup {
				return nil, fmt.Errorf("sched: %s: duplicate parameter %q", f.info.Family, k)
			}
			p.kv[k] = v
		} else {
			p.flags[tok] = true
		}
	}
	s, err := f.build(p)
	if err != nil {
		return nil, fmt.Errorf("sched: %s: %v", f.info.Family, err)
	}
	if left := p.leftover(); len(left) > 0 {
		return nil, fmt.Errorf("sched: %s: unknown parameter %q (valid: %s)",
			f.info.Family, left[0], validKeys(f))
	}
	return Wrap(s), nil
}

// MustParse is Parse, panicking on error — for specs fixed at compile
// time (experiment tables, defaults).
func MustParse(spec string) Engine {
	e, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return e
}

// List returns every registered family's metadata in presentation order.
func List() []Info {
	out := make([]Info, len(families))
	for i := range families {
		out[i] = families[i].info
	}
	return out
}

// FamilyNames returns the registered family names plus aliases, sorted.
func FamilyNames() []string {
	var out []string
	for i := range families {
		out = append(out, families[i].info.Family)
	}
	for a := range aliases {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Suggest returns up to three registered names (families and aliases)
// nearest to the unknown one by edit distance, closest first; names
// further than half their length away are not offered.
func Suggest(unknown string) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, name := range FamilyNames() {
		d := editDistance(unknown, name)
		limit := (len(name) + 1) / 2
		if d <= limit {
			cands = append(cands, cand{name, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > 3 {
		cands = cands[:3]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between two ASCII-ish strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
