package fabric

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// burst fires n concurrent Connect calls with random endpoints, releases
// every grant, and returns once all verdicts are in.
func burst(t *testing.T, m *Manager, tree *topology.Tree, n int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			h, err := m.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
			if err != nil {
				if !errors.Is(err, ErrUnroutable) {
					t.Errorf("client %d: %v", id, err)
				}
				return
			}
			if err := h.Release(); err != nil {
				t.Errorf("client %d: release: %v", id, err)
			}
		}(c)
	}
	wg.Wait()
}

// TestParallelThresholdRouting checks the engine-chosen split under a
// spec-named parallel engine: a full epoch fans out across the workers,
// a lone request falls back to the engine's sequential core, each is
// counted by what actually ran, and CheckInvariants holds across the
// mix.
func TestParallelThresholdRouting(t *testing.T) {
	tree := topology.MustNew(3, 8, 8)
	m, err := New(Config{
		Tree:          tree,
		SchedulerSpec: "parallel,rollback,workers=4",
		BatchSize:     64,
		MaxWait:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A 64-client burst fills whole epochs well past the worker count.
	burst(t, m, tree, 64, 1)
	s := m.Stats()
	if s.ParallelEpochs == 0 {
		t.Fatalf("no epoch went parallel: %+v", s)
	}
	if s.LastEpochEngine != "parallel-level-wise/deterministic/w4" {
		t.Errorf("LastEpochEngine = %q", s.LastEpochEngine)
	}

	// A lone request is an epoch of one: the engine runs it sequentially.
	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	s = m.Stats()
	if s.SequentialEpochs == 0 {
		t.Errorf("lone request did not run sequentially: %+v", s)
	}
	if s.LastEpochEngine != "level-wise/rollback" {
		t.Errorf("LastEpochEngine after lone request = %q", s.LastEpochEngine)
	}

	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// loadAndCheck drives a spec-named parallel engine through the manager
// under load (and under -race in CI) and checks that epochs went parallel,
// nothing is held after the drain, and CheckInvariants holds.
func loadAndCheck(t *testing.T, spec string) {
	t.Helper()
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{
		Tree:          tree,
		SchedulerSpec: spec,
		BatchSize:     32,
		MaxWait:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		burst(t, m, tree, 48, int64(round)*100)
	}
	s := m.Stats()
	if s.ParallelEpochs == 0 {
		t.Fatalf("no epoch went parallel: %+v", s)
	}
	if s.Active != 0 || s.Utilization != 0 {
		t.Errorf("drained manager still holds links: %+v", s)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestParallelRacyManager(t *testing.T) {
	loadAndCheck(t, "parallel,mode=racy,workers=8,rollback")
}

func TestParallelShardManager(t *testing.T) {
	loadAndCheck(t, "parallel,mode=shard,workers=8,steal,rollback")
}

// TestParallelModeConfigErrors: the spec is the only place a parallel
// mode is named, and New surfaces the registry's verdict on it.
func TestParallelModeConfigErrors(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	for spec, ok := range map[string]bool{
		"parallel,mode=sharded":    false,
		"parallel,steal":           false,
		"parallel,mode=racy,steal": false,
		"parallel,mode=racy":       true,
		"parallel,mode=shard":      true,
	} {
		m, err := New(Config{Tree: tree, SchedulerSpec: spec})
		if (err == nil) != ok {
			t.Errorf("SchedulerSpec %q: err = %v, want ok = %v", spec, err, ok)
		}
		if m != nil {
			m.Close(context.Background())
		}
	}
}

// TestHandlePortsOwned: a handle's ports must survive later epochs even
// though outcomes alias the manager's reusable scheduling arena.
func TestHandlePortsOwned(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	before := h1.Ports()
	// Subsequent epochs reuse the scratch arena h1's outcome lived in.
	for i := 0; i < 8; i++ {
		h, err := m.Connect(context.Background(), i%tree.Nodes(), (i*7+3)%tree.Nodes())
		if err != nil && !errors.Is(err, ErrUnroutable) {
			t.Fatal(err)
		}
		if err == nil {
			if err := h.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := h1.Ports()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("handle ports mutated by later epochs: %v -> %v", before, after)
		}
	}
	if err := h1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
