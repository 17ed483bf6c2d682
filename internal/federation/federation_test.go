package federation

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// testRouter builds an n-plane router of small identical planes with
// BatchSize 1 and the given policy tweaks applied.
func testRouter(t *testing.T, n int, mod func(*Config)) *Router {
	t.Helper()
	cfg := Config{}
	for i := 0; i < n; i++ {
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1), BatchSize: 1},
		})
	}
	if mod != nil {
		mod(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	return r
}

// blind makes the named planes of r blind: their Routable says yes to every
// pair, so the router tries a plane where the policy puts it and learns a
// denial only by admitting. Call it before any admission runs.
func blind(r *Router, names ...string) {
	for _, name := range names {
		p := r.planeByName(name)
		p.surf = &probe{Surface: p.surf, blind: true}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoPlanes) {
		t.Errorf("empty config: %v, want ErrNoPlanes", err)
	}
	if _, err := New(Config{Planes: []PlaneConfig{
		{Name: "a", Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1)}},
		{Name: "a", Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1)}},
	}}); err == nil {
		t.Error("duplicate plane names accepted")
	}
	if _, err := New(Config{Planes: []PlaneConfig{
		{Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1)}},
		{Fabric: fabric.Config{Tree: topology.MustNew(2, 4, 1)}},
	}}); err == nil {
		t.Error("mismatched node counts accepted")
	}
	if _, err := New(Config{Planes: []PlaneConfig{{}}}); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	r := testRouter(t, 2, nil)
	if _, err := r.Connect(context.Background(), 0, 99); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if got := r.Nodes(); got != 4 {
		t.Errorf("Nodes() = %d, want 4", got)
	}
	if got := r.PlaneCount(); got != 2 {
		t.Errorf("PlaneCount() = %d, want 2", got)
	}
	if _, ok := r.Plane("plane1"); !ok {
		t.Error("Plane(plane1) not found")
	}
	if _, ok := r.Plane("nope"); ok {
		t.Error("Plane(nope) found")
	}
	if err := r.KillPlane("nope"); err == nil {
		t.Error("KillPlane(nope) succeeded")
	}
	if err := r.RepairPlane("nope"); err == nil {
		t.Error("RepairPlane(nope) succeeded")
	}
	r.Close(context.Background())
	if _, err := r.Connect(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect after Close: %v, want ErrClosed", err)
	}
}

// TestPolicyOrdering pins each policy's candidate ordering against a
// 4-plane router.
func TestPolicyOrdering(t *testing.T) {
	r := testRouter(t, 4, nil)

	// Hash: deterministic per (src, dst), preserves ring order.
	var bufA, bufB [inlinePlanes]int
	a := r.candidates(&bufA, 0, 3)
	b := r.candidates(&bufB, 0, 3)
	if len(a) != 4 {
		t.Fatalf("candidates = %v, want 4 planes", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hash ordering not deterministic: %v vs %v", a, b)
		}
	}
	for i := 1; i < 4; i++ {
		if a[i] != (a[i-1]+1)%4 {
			t.Fatalf("hash order %v is not a ring rotation", a)
		}
	}

	// Round-robin: consecutive admissions rotate the starting plane.
	r.cfg.Policy = PolicyRoundRobin
	starts := make(map[int]bool)
	for i := 0; i < 4; i++ {
		starts[r.candidates(&bufA, 0, 3)[0]] = true
	}
	if len(starts) != 4 {
		t.Errorf("round-robin visited %d distinct starting planes in 4 admissions, want 4", len(starts))
	}

	// Random: stays a permutation.
	r.cfg.Policy = PolicyRandom
	seen := make(map[int]bool)
	for _, pi := range r.candidates(&bufA, 1, 2) {
		seen[pi] = true
	}
	if len(seen) != 4 {
		t.Errorf("random ordering lost planes: %v", seen)
	}

	// Least-loaded: the emptiest plane leads. Load planes 0..2 with one
	// circuit each, leave plane 3 idle.
	r.cfg.Policy = PolicyLeastLoaded
	for i := 0; i < 3; i++ {
		s, _ := r.Plane(r.PlaneNames()[i])
		if _, err := s.Admit(context.Background(), 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.candidates(&bufA, 0, 3); got[0] != 3 {
		t.Errorf("least-loaded candidates %v, want plane 3 first", got)
	}
}
