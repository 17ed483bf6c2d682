package federation

// The on-disk multi-plane config grammar: what `fttopo gen` emits,
// `ftserve -config` loads and ftserve's own shape flags fill — the one
// road from an operator's knobs to New. JSON with duration fields as Go
// duration strings ("2ms"), validated by the checks New itself runs.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/fabric"
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
	// "level-wise,rollback,reuse-cost=4"); empty means the
	// fabric default.
	Scheduler string `json:"scheduler,omitempty"`
	// Queue knobs; zero means the fabric default.
	BatchSize    int    `json:"batch_size,omitempty"`
	MaxWait      string `json:"max_wait,omitempty"`
	QueueLimit   int    `json:"queue_limit,omitempty"`
	AdmitTimeout string `json:"admit_timeout,omitempty"`
	// FlapThreshold > 0 enables flap damping with the given score
	// threshold (fabric.Config.FlapThreshold); zero leaves it off.
	FlapThreshold float64 `json:"flap_threshold,omitempty"`
}

// FileConfig is a serialized federation: the router knobs plus one spec
// per plane. A key this grammar does not name — a misspelling, or one of
// the knobs the grammar retired — fails Load, naming the key.
type FileConfig struct {
	// Policy is the plane-selection policy name (one of Policies());
	// empty means hash.
	Policy string      `json:"policy,omitempty"`
	Planes []PlaneSpec `json:"planes"`
}

// Generate builds the FileConfig `fttopo gen` emits: n identical planes
// of shape FT(l, m, w) running the given scheduler spec under the given
// policy. Plane names are "plane0".."plane<n-1>".
func Generate(n, l, m, w int, scheduler, policy string) *FileConfig {
	fc := &FileConfig{Policy: policy}
	for i := 0; i < n; i++ {
		fc.Planes = append(fc.Planes, PlaneSpec{
			Name:      planeName("", i),
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
	fc, err := decode(r)
	if err != nil {
		return nil, err
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	return fc, nil
}

// decode is Load's parse: one JSON object, unknown keys refused, and
// nothing but whitespace after it.
func decode(r io.Reader) (*FileConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc FileConfig
	err := dec.Decode(&fc)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the config object")
	}
	if err != nil {
		return nil, fmt.Errorf("federation: parsing config: %w", err)
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

// Validate reports what Build → New would refuse, building no plane. It
// holds no rule of its own: the file's are Build's, New's are Config.Check's.
func (fc *FileConfig) Validate() error {
	cfg, err := fc.Build()
	if err != nil {
		return err
	}
	return cfg.Check()
}

// Build constructs the runtime Config: it resolves the policy name,
// parses each duration and builds one topology per plane (planes never
// share a tree: they are independent fabrics that merely agree on
// shape). What the knobs may hold is New's to say (Config.Check).
func (fc *FileConfig) Build() (Config, error) {
	policy, err := ParsePolicy(fc.Policy)
	if err != nil {
		return Config{}, err
	}
	// dur parses one optional duration key ("" means zero); the first
	// failure is kept in err and returned with the assembled Config.
	dur := func(where, key, s string) time.Duration {
		if s == "" || err != nil {
			return 0
		}
		d, perr := time.ParseDuration(s)
		if perr != nil {
			err = fmt.Errorf("federation: %s%s: %w", where, key, perr)
		}
		return d
	}
	cfg := Config{Policy: policy}
	for i, ps := range fc.Planes {
		where := planeName(ps.Name, i) + ": "
		tree, terr := topology.New(ps.Levels, ps.Arity, ps.Width)
		if terr != nil {
			return Config{}, fmt.Errorf("federation: %s%w", where, terr)
		}
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Name: ps.Name,
			Fabric: fabric.Config{
				Tree:          tree,
				SchedulerSpec: ps.Scheduler,
				BatchSize:     ps.BatchSize,
				MaxWait:       dur(where, "max_wait", ps.MaxWait),
				QueueLimit:    ps.QueueLimit,
				AdmitTimeout:  dur(where, "admit_timeout", ps.AdmitTimeout),
				FlapThreshold: ps.FlapThreshold,
			},
		})
	}
	return cfg, err
}
