package sched

import "testing"

func TestAsIncremental(t *testing.T) {
	for _, c := range []struct {
		spec string
		want bool
	}{
		{"level-wise", true}, // the capability is structural, not flag-gated
		{"level-wise,rollback,reuse-cost=4", true},
		{"parallel,workers=4", false},
		{"optimal", false},
		{"local", false},
		{"backtrack,depth=2", false},
	} {
		_, ok := AsIncremental(MustParse(c.spec))
		if ok != c.want {
			t.Errorf("AsIncremental(%q) = %v, want %v", c.spec, ok, c.want)
		}
	}
}
