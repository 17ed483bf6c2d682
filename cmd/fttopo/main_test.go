package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/topology"
)

func TestRunBasic(t *testing.T) {
	if err := run(3, 4, 4, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPathAndDot(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	if err := run(2, 4, 4, dot, "0,15"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph ft") {
		t.Fatalf("dot file wrong: %.80s", data)
	}
}

func TestRunAsymmetricSkipsOhring(t *testing.T) {
	// m != w: the Ohring cross-check only applies to symmetric trees and
	// must be skipped, not fail.
	if err := run(3, 4, 2, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(0, 4, 4, "", ""); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run(2, 4, 4, "", "garbage"); err == nil {
		t.Error("bad path spec accepted")
	}
	if err := run(2, 4, 4, "/nonexistent-dir/x.dot", ""); err == nil {
		t.Error("unwritable dot path accepted")
	}
}

// TestGenEmitsLoadableConfig pins the gen → ftserve contract: the
// emitted file loads through the same federation.LoadFile path the
// server uses, carrying the requested shape and knobs.
func TestGenEmitsLoadableConfig(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fabric.json")
	err := runGen([]string{"-planes", "3", "-levels", "2", "-children", "4", "-parents", "2",
		"-scheduler", "backtrack,depth=2", "-policy", "least-loaded", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := federation.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Planes) != 3 || fc.Policy != "least-loaded" {
		t.Fatalf("generated config %+v", fc)
	}
	for i, ps := range fc.Planes {
		if ps.Levels != 2 || ps.Arity != 4 || ps.Width != 2 || ps.Scheduler != "backtrack,depth=2" {
			t.Errorf("plane %d spec %+v", i, ps)
		}
	}
	if _, err := fc.Build(); err != nil {
		t.Fatal(err)
	}
}

// TestGenGrayKnobs pins the one gray-failure flag, -flap-threshold, into
// the emitted file through federation.LoadFile and Build, and checks that
// the flags of the retired knobs are refused.
func TestGenGrayKnobs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gray.json")
	err := runGen([]string{"-planes", "2", "-levels", "2", "-children", "4", "-parents", "2",
		"-flap-threshold", "2.5", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := federation.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range fc.Planes {
		if ps.FlapThreshold != 2.5 {
			t.Errorf("plane %d gray knob lost: %+v", i, ps)
		}
	}
	cfg, err := fc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Planes[0].Fabric.FlapThreshold != 2.5 {
		t.Fatalf("built config dropped the flap threshold: %+v", cfg)
	}
	// Damping off by default: a plain gen carries no gray fields.
	plain := filepath.Join(t.TempDir(), "plain.json")
	if err := runGen([]string{"-planes", "1", "-out", plain}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "flap") {
		t.Fatalf("plain gen leaked gray fields:\n%s", data)
	}
	for _, flag := range []string{"-flap-half-life", "-probation", "-repair-budget", "-repair-budget-burst",
		"-health-alpha", "-open-below", "-latency-budget", "-failover-budget", "-failover-budget-burst"} {
		if err := runGen([]string{flag, "1", "-out", os.DevNull}); err == nil {
			t.Errorf("retired flag %s accepted", flag)
		}
	}
}

func TestGenErrors(t *testing.T) {
	if err := runGen([]string{"-planes", "0"}); err == nil {
		t.Error("0 planes accepted")
	}
	if err := runGen([]string{"-levels", "0", "-out", os.DevNull}); err == nil {
		t.Error("bad shape accepted")
	}
	if err := runGen([]string{"-policy", "fastest", "-out", os.DevNull}); err == nil {
		t.Error("bad policy accepted")
	}
	if err := runGen([]string{"-scheduler", "warp-drive", "-out", os.DevNull}); err == nil {
		t.Error("bad scheduler accepted")
	}
	if err := runGen([]string{"-out", "/nonexistent-dir/x.json"}); err == nil {
		t.Error("unwritable out path accepted")
	}
	if err := runGen([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestEnumeratePathsLimit(t *testing.T) {
	// 3-level w=4 with a top-level ancestor: 16 paths, print limited.
	if err := enumeratePaths(topology.MustNew(3, 4, 4), 0, 63); err != nil {
		t.Fatal(err)
	}
	// Same-switch pair: zero paths to enumerate, still fine.
	if err := enumeratePaths(topology.MustNew(3, 4, 4), 0, 1); err != nil {
		t.Fatal(err)
	}
}
