package federation

// The on-disk multi-plane config grammar: what `fttopo gen` emits and
// `ftserve -config` loads. JSON with duration
// fields as Go duration strings ("2ms"), validated against the
// scheduler registry and the topology constructor before any plane is
// built.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/topology"
)

// PlaneSpec describes one plane in a config file.
type PlaneSpec struct {
	// Name identifies the plane (default "plane<i>").
	Name string `json:"name,omitempty"`
	// Levels/Arity/Width are the FT(l, m, w) shape: l switch levels,
	// m children per switch, w parents per switch.
	Levels int `json:"levels"`
	Arity  int `json:"arity"`
	Width  int `json:"width"`
	// Scheduler is an internal/sched registry spec — the one place a
	// plane's admission engine is chosen (e.g. "level-wise,rollback",
	// "backtrack,depth=2", "parallel,mode=shard,workers=4,steal",
	// "level-wise,rollback,incremental,reuse-cost=4"); empty means the
	// fabric default.
	Scheduler string `json:"scheduler,omitempty"`
	// Queue knobs; zero means the fabric default.
	BatchSize    int    `json:"batch_size,omitempty"`
	MaxWait      string `json:"max_wait,omitempty"`
	QueueLimit   int    `json:"queue_limit,omitempty"`
	AdmitTimeout string `json:"admit_timeout,omitempty"`
	// Repair-loop knobs; zero means the fabric default.
	RepairRetries int    `json:"repair_retries,omitempty"`
	RepairBackoff string `json:"repair_backoff,omitempty"`
	// Gray-failure knobs (fabric.Config). FlapThreshold > 0 enables flap
	// damping with the given score threshold; the half-life and
	// probation durations default when empty. RepairBudgetRate/Burst map
	// to fabric.Config.RepairBudget (0/0 = the fabric default; a
	// negative rate disables the retry limit).
	FlapThreshold       float64 `json:"flap_threshold,omitempty"`
	FlapHalfLife        string  `json:"flap_half_life,omitempty"`
	QuarantineProbation string  `json:"quarantine_probation,omitempty"`
	RepairBudgetRate    float64 `json:"repair_budget_rate,omitempty"`
	RepairBudgetBurst   int     `json:"repair_budget_burst,omitempty"`
	// Weight biases plane-selection toward this plane under the hash and
	// least-loaded policies (a weight-2 plane draws roughly twice the
	// traffic of a weight-1 plane). Zero or omitted means 1; round-robin
	// and random ignore weights.
	Weight float64 `json:"weight,omitempty"`
}

// FileConfig is a serialized federation: the router knobs plus one spec
// per plane.
type FileConfig struct {
	// Policy is the plane-selection policy name
	// (hash|round-robin|random|least-loaded); empty means hash.
	Policy string `json:"policy,omitempty"`
	// FailoverLimit/EjectAfter/ProbeInterval map to Config; zero means
	// the federation default.
	FailoverLimit int    `json:"failover_limit,omitempty"`
	EjectAfter    int    `json:"eject_after,omitempty"`
	ProbeInterval string `json:"probe_interval,omitempty"`
	// Adaptive-health knobs (Config; health.go): the EWMA smoothing
	// factor, the breaker-opening score, the latency budget that marks a
	// grant degraded, and the failover token bucket (0/0 = unlimited).
	HealthAlpha         float64     `json:"health_alpha,omitempty"`
	OpenBelow           float64     `json:"open_below,omitempty"`
	LatencyBudget       string      `json:"latency_budget,omitempty"`
	FailoverBudgetRate  float64     `json:"failover_budget_rate,omitempty"`
	FailoverBudgetBurst int         `json:"failover_budget_burst,omitempty"`
	Planes              []PlaneSpec `json:"planes"`
}

// Generate builds the FileConfig `fttopo gen` emits: n identical planes
// of shape FT(l, m, w) running the given scheduler spec under the given
// policy. Plane names are "plane0".."plane<n-1>".
func Generate(n, l, m, w int, scheduler, policy string) *FileConfig {
	fc := &FileConfig{Policy: policy}
	for i := 0; i < n; i++ {
		fc.Planes = append(fc.Planes, PlaneSpec{
			Name:      fmt.Sprintf("plane%d", i),
			Levels:    l,
			Arity:     m,
			Width:     w,
			Scheduler: scheduler,
		})
	}
	return fc
}

// Load parses a FileConfig from r and validates it.
func Load(r io.Reader) (*FileConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc FileConfig
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("federation: parsing config: %w", err)
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	return &fc, nil
}

// LoadFile reads and validates a FileConfig from path ("-" for stdin).
func LoadFile(path string) (*FileConfig, error) {
	if path == "-" {
		return Load(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fc, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fc, nil
}

// Write emits the config as indented JSON, the `fttopo gen` output
// format.
func (fc *FileConfig) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fc)
}

// Validate checks everything Build → New would reject, without building
// anything: policy and scheduler specs resolve, durations parse, tree
// shapes construct, plane names are distinct, and all planes serve one
// node count. The engine rules are the scheduler registry's own
// (sched.Parse); TestValidateMatchesNew pins the rest against New.
func (fc *FileConfig) Validate() error {
	if _, err := ParsePolicy(fc.Policy); err != nil {
		return err
	}
	if _, err := parseDur("probe_interval", fc.ProbeInterval); err != nil {
		return err
	}
	if _, err := parseDur("latency_budget", fc.LatencyBudget); err != nil {
		return err
	}
	if fc.HealthAlpha < 0 || fc.HealthAlpha > 1 {
		return fmt.Errorf("federation: health_alpha %v outside [0, 1]", fc.HealthAlpha)
	}
	if fc.OpenBelow < 0 || fc.OpenBelow >= 1 {
		return fmt.Errorf("federation: open_below %v outside [0, 1)", fc.OpenBelow)
	}
	if fc.FailoverBudgetRate < 0 {
		return fmt.Errorf("federation: negative failover_budget_rate %v", fc.FailoverBudgetRate)
	}
	if fc.FailoverBudgetBurst < 0 {
		return fmt.Errorf("federation: negative failover_budget_burst %d", fc.FailoverBudgetBurst)
	}
	if fc.FailoverBudgetBurst > 0 && fc.FailoverBudgetRate == 0 {
		return fmt.Errorf("federation: failover_budget_burst %d without failover_budget_rate", fc.FailoverBudgetBurst)
	}
	if len(fc.Planes) == 0 {
		return ErrNoPlanes
	}
	nodes := -1
	names := make(map[string]struct{}, len(fc.Planes))
	for i, ps := range fc.Planes {
		where := ps.Name
		if where == "" {
			where = fmt.Sprintf("plane%d", i) // the name New gives an unnamed plane
		}
		if _, dup := names[where]; dup {
			return fmt.Errorf("federation: duplicate plane name %q", where)
		}
		names[where] = struct{}{}
		tree, err := topology.New(ps.Levels, ps.Arity, ps.Width)
		if err != nil {
			return fmt.Errorf("federation: %s: %w", where, err)
		}
		if nodes == -1 {
			nodes = tree.Nodes()
		} else if tree.Nodes() != nodes {
			return fmt.Errorf("federation: %s serves %d nodes, previous planes serve %d", where, tree.Nodes(), nodes)
		}
		if ps.Scheduler != "" {
			if _, err := sched.Parse(ps.Scheduler); err != nil {
				return fmt.Errorf("federation: %s: %w", where, err)
			}
		}
		for _, d := range []struct{ name, val string }{
			{"max_wait", ps.MaxWait},
			{"admit_timeout", ps.AdmitTimeout},
			{"repair_backoff", ps.RepairBackoff},
			{"flap_half_life", ps.FlapHalfLife},
			{"quarantine_probation", ps.QuarantineProbation},
		} {
			if _, err := parseDur(d.name, d.val); err != nil {
				return fmt.Errorf("federation: %s: %w", where, err)
			}
		}
		if ps.FlapThreshold < 0 {
			return fmt.Errorf("federation: %s: negative flap_threshold %v", where, ps.FlapThreshold)
		}
		if ps.RepairBudgetRate >= 0 && ps.RepairBudgetBurst < 0 {
			return fmt.Errorf("federation: %s: negative repair_budget_burst %d", where, ps.RepairBudgetBurst)
		}
		if ps.RepairBudgetRate < 0 && ps.RepairBudgetBurst != 0 {
			return fmt.Errorf("federation: %s: repair_budget_burst %d with unlimited (negative) repair_budget_rate", where, ps.RepairBudgetBurst)
		}
		if ps.RepairBudgetRate == 0 && ps.RepairBudgetBurst > 0 {
			return fmt.Errorf("federation: %s: repair_budget_burst %d without a repair_budget_rate", where, ps.RepairBudgetBurst)
		}
		if ps.Weight < 0 {
			return fmt.Errorf("federation: %s: negative weight %v", where, ps.Weight)
		}
	}
	return nil
}

// Build validates the file and constructs the runtime Config, building
// one topology per plane (planes never share a tree: they are
// independent fabrics that merely agree on shape).
func (fc *FileConfig) Build() (Config, error) {
	if err := fc.Validate(); err != nil {
		return Config{}, err
	}
	policy, _ := ParsePolicy(fc.Policy)
	probe, _ := parseDur("probe_interval", fc.ProbeInterval)
	latBudget, _ := parseDur("latency_budget", fc.LatencyBudget)
	cfg := Config{
		Policy:         policy,
		FailoverLimit:  fc.FailoverLimit,
		EjectAfter:     fc.EjectAfter,
		ProbeInterval:  probe,
		HealthAlpha:    fc.HealthAlpha,
		OpenBelow:      fc.OpenBelow,
		LatencyBudget:  latBudget,
		FailoverBudget: fabric.Budget{Rate: fc.FailoverBudgetRate, Burst: fc.FailoverBudgetBurst},
	}
	for _, ps := range fc.Planes {
		maxWait, _ := parseDur("max_wait", ps.MaxWait)
		admit, _ := parseDur("admit_timeout", ps.AdmitTimeout)
		backoff, _ := parseDur("repair_backoff", ps.RepairBackoff)
		halfLife, _ := parseDur("flap_half_life", ps.FlapHalfLife)
		probation, _ := parseDur("quarantine_probation", ps.QuarantineProbation)
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Name:   ps.Name,
			Weight: ps.Weight,
			Fabric: fabric.Config{
				Tree:                topology.MustNew(ps.Levels, ps.Arity, ps.Width),
				SchedulerSpec:       ps.Scheduler,
				BatchSize:           ps.BatchSize,
				MaxWait:             maxWait,
				QueueLimit:          ps.QueueLimit,
				AdmitTimeout:        admit,
				RepairRetries:       ps.RepairRetries,
				RepairBackoff:       backoff,
				FlapThreshold:       ps.FlapThreshold,
				FlapHalfLife:        halfLife,
				QuarantineProbation: probation,
				RepairBudget:        fabric.Budget{Rate: ps.RepairBudgetRate, Burst: ps.RepairBudgetBurst},
			},
		})
	}
	return cfg, nil
}

// parseDur parses an optional Go duration string ("" means zero).
func parseDur(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("federation: %s: %w", field, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("federation: %s: negative duration %s", field, s)
	}
	return d, nil
}
