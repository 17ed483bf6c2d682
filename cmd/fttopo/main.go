// Command fttopo inspects fat-tree topologies: structural summary,
// wiring validation (including the Ohring/Theorem-1 cross-check), path
// enumeration between two nodes, and Graphviz export. The gen
// subcommand emits multi-plane federation configs for ftserve.
//
// Usage:
//
//	fttopo [-levels 3] [-children 4] [-parents 4] [-dot out.dot]
//	       [-path src,dst]
//	fttopo gen [-planes 2] [-levels 3] [-children 4] [-parents 4]
//	           [-scheduler spec] [-policy hash] [-out fabric.json]
//	           [-flap-threshold 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/digits"
	"repro/internal/federation"
	"repro/internal/topology"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "fttopo gen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	levels := flag.Int("levels", 3, "switch levels l")
	children := flag.Int("children", 4, "children per switch m")
	parents := flag.Int("parents", 4, "parents per switch w")
	dotPath := flag.String("dot", "", "write Graphviz DOT to this file")
	pathSpec := flag.String("path", "", "enumerate paths between 'src,dst'")
	flag.Parse()

	if err := run(*levels, *children, *parents, *dotPath, *pathSpec); err != nil {
		fmt.Fprintf(os.Stderr, "fttopo: %v\n", err)
		os.Exit(1)
	}
}

// runGen is the gen subcommand: emit a federation FileConfig of n
// identical planes, validated before it is written, to stdout or -out.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	planes := fs.Int("planes", 2, "number of planes")
	levels := fs.Int("levels", 3, "switch levels l")
	children := fs.Int("children", 4, "children per switch m")
	parents := fs.Int("parents", 4, "parents per switch w")
	scheduler := fs.String("scheduler", "", "per-plane admission engine spec (empty = fabric default)")
	policy := fs.String("policy", "", "plane selection policy ("+strings.Join(federation.Policies(), "|")+"; empty = hash)")
	flapThreshold := fs.Float64("flap-threshold", 0, "per-plane flap-damping quarantine threshold (0 = damping off)")
	out := fs.String("out", "", "write the config to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fc := federation.Generate(*planes, *levels, *children, *parents, *scheduler, *policy)
	for i := range fc.Planes {
		fc.Planes[i].FlapThreshold = *flapThreshold
	}
	if err := fc.Validate(); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return fc.Write(w)
}

func run(levels, children, parents int, dotPath, pathSpec string) error {
	tree, err := topology.New(levels, children, parents)
	if err != nil {
		return err
	}
	fmt.Println(tree)
	for h := 0; h < tree.Levels(); h++ {
		fmt.Printf("  level %d: %d switches\n", h, tree.SwitchesAt(h))
	}
	m := tree.ComputeMetrics()
	fmt.Printf("  diameter %d hops, avg distance %.2f, path diversity %d, bisection %d links, full bandwidth: %v\n",
		m.Diameter, m.AvgDistance, m.MaxPathDiversity, m.BisectionLinks, m.FullBandwidth)
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("wiring validation FAILED: %w", err)
	}
	fmt.Println("wiring validation: ok (bidirectional adjacency consistent)")
	if tree.Spec().Symmetric() {
		if err := crossCheckOhring(tree); err != nil {
			return err
		}
		fmt.Println("Ohring construction cross-check: ok (Theorem 1 wiring matches)")
	}

	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tree.WriteDot(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dotPath)
	}

	if pathSpec != "" {
		var src, dst int
		if _, err := fmt.Sscanf(pathSpec, "%d,%d", &src, &dst); err != nil {
			return fmt.Errorf("bad -path %q: want 'src,dst'", pathSpec)
		}
		return enumeratePaths(tree, src, dst)
	}
	return nil
}

func crossCheckOhring(tree *topology.Tree) error {
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for p := 0; p < tree.Parents(); p++ {
				if tree.UpParent(h, idx, p) != tree.OhringParent(h, idx, p) {
					return fmt.Errorf("Ohring mismatch at level %d switch %d port %d", h, idx, p)
				}
			}
		}
	}
	return nil
}

func enumeratePaths(tree *topology.Tree, src, dst int) error {
	h := tree.AncestorLevel(src, dst)
	total := digits.Pow(tree.Parents(), h)
	fmt.Printf("paths %d → %d: common ancestor at level %d, %d distinct paths\n", src, dst, h, total)
	limit := total
	if limit > 16 {
		limit = 16
	}
	for enc := 0; enc < limit; enc++ {
		ports := make([]int, h)
		e := enc
		for i := range ports {
			ports[i] = e % tree.Parents()
			e /= tree.Parents()
		}
		path, err := tree.ExpandPath(src, dst, ports)
		if err != nil {
			return err
		}
		hops := make([]string, len(path.Hops))
		for i, hp := range path.Hops {
			hops[i] = fmt.Sprintf("(%d,%d)", hp.Level, hp.Index)
		}
		fmt.Printf("  ports %v: %s\n", ports, strings.Join(hops, " → "))
	}
	if limit < total {
		fmt.Printf("  … %d more\n", total-limit)
	}
	return nil
}
