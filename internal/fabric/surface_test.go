package fabric

import (
	"context"
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/topology"
)

// TestSurfaceAdapter exercises the plane-agnostic surface through the
// interface types only — the way federation consumes a plane.
func TestSurfaceAdapter(t *testing.T) {
	m, err := New(Config{Tree: topology.MustNew(3, 2, 2), BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var s Surface = m

	if s.Tree().Nodes() != 8 {
		t.Fatalf("Tree().Nodes() = %d, want 8", s.Tree().Nodes())
	}
	if got := s.Unavailable(); got != 0 {
		t.Fatalf("idle Unavailable = %d, want 0", got)
	}
	c, err := s.Admit(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Src() != 0 || c.Dst() != 7 {
		t.Errorf("endpoints (%d, %d), want (0, 7)", c.Src(), c.Dst())
	}
	// 0 and 7 meet at the top of FT(3,2,2): 2 levels × up+down = 4 channels.
	if got := s.Unavailable(); got != 4 {
		t.Errorf("Unavailable = %d, want 4", got)
	}
	st := s.Stats()
	if st.Occupancy != 4 || st.ChannelAllocs != 4 {
		t.Errorf("Stats occupancy/allocs = %d/%d, want 4/4", st.Occupancy, st.ChannelAllocs)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.Occupancy != 0 {
		t.Errorf("Occupancy after release = %d, want 0", st.Occupancy)
	}
	// A failed link is capacity lost, not occupied: Unavailable counts
	// both of its channels while the occupancy stays 0.
	if _, err := m.FailLink(0, 0, 0, faults.Both); err != nil {
		t.Fatal(err)
	}
	if got, st := s.Unavailable(), s.Stats(); got != 2 || st.Occupancy != 0 {
		t.Errorf("with one failed link: Unavailable = %d, Occupancy = %d, want 2 and 0", got, st.Occupancy)
	}
	// A denial must come back as a typed nil-free (nil, error) pair: a
	// Conn interface holding a nil *Handle would defeat == nil checks.
	if _, err := s.Admit(context.Background(), 0, 999); err == nil {
		t.Fatal("out-of-range admit succeeded")
	}
	c2, err := s.Admit(context.Background(), 0, 999)
	if c2 != nil {
		t.Fatalf("failed Admit returned non-nil Conn %v (err %v)", c2, err)
	}
}

// TestOnConnTerminalHook pins the hook contract: it fires exactly once
// per terminal repair verdict, with the dead Conn and its cause, and
// does not fire for owner-initiated releases.
func TestOnConnTerminalHook(t *testing.T) {
	type death struct {
		c     Conn
		cause error
	}
	deaths := make(chan death, 4)
	clk := clock.NewFake()
	m, err := New(Config{
		Tree:           topology.MustNew(2, 2, 2),
		BatchSize:      1,
		Clock:          clk,
		OnConnTerminal: func(c Conn, cause error) { deaths <- death{c, cause} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Owner release: no hook.
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deaths:
		t.Fatalf("hook fired for an owner release: %v", d.cause)
	default:
	}

	h2, err := m.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the whole level-0 up row out of switch 0: the revoked
	// connection dies on its RepairRetries-th attempt, fullBackoff after
	// its first, and not before.
	if _, err := m.FailSwitch(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailSwitch(1, 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(fullBackoff - 1)
	if h2.Err() != nil || !h2.Repairing() {
		t.Fatalf("the repair ended before its last attempt: Err %v", h2.Err())
	}
	clk.Advance(1)
	if !errors.Is(h2.Err(), ErrUnroutableDegraded) {
		t.Fatalf("after its last attempt the repair has not ended: Err %v", h2.Err())
	}
	d := <-deaths
	if d.c.Src() != h2.Src() || d.c.Dst() != h2.Dst() {
		t.Errorf("hook conn (%d→%d), want (%d→%d)", d.c.Src(), d.c.Dst(), h2.Src(), h2.Dst())
	}
	if !errors.Is(d.cause, ErrUnroutableDegraded) {
		t.Errorf("hook cause %v, want ErrUnroutableDegraded", d.cause)
	}
	if got := d.c.Err(); !errors.Is(got, ErrUnroutableDegraded) {
		t.Errorf("Conn.Err() = %v, want ErrUnroutableDegraded", got)
	}
}
