package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestChaosGrayDeterministic: E17 and E21 run on simulated time, so each
// table is a function of the seed alone — two runs at seeds 1, 2 and 7
// print the same bytes — and at each of those seeds both studies have the
// shape CheckChaosClaims and CheckGrayClaims ask for. Every cell heals,
// settles and passes fabric.CheckInvariants before its numbers count, so a
// broken accounting identity (a revocation that resolves into no counter)
// fails the cell, and this test.
func TestChaosGrayDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var tables [2]string
			for i := range tables {
				chaos, err := ExtChaos(seed)
				if err != nil {
					t.Fatal(err)
				}
				gray, err := ExtGray(seed)
				if err != nil {
					t.Fatal(err)
				}
				tables[i] = ChaosTable(chaos).String() + GrayTable(gray).String()
				if i > 0 {
					continue
				}
				for _, bad := range append(CheckChaosClaims(chaos), CheckGrayClaims(gray.Cells)...) {
					t.Error(bad)
				}
				for _, c := range chaos {
					if c.Rate > 0 && c.Aborted == 0 {
						t.Errorf("E17 p=%g aborted no repair: the release-mid-repair term of the identity goes unchecked", c.Rate)
					}
				}
				if s := gray.Slow; s.SlowAdmits == 0 || s.Granted != s.Offered || s.DegradedBreaker != "closed" {
					t.Errorf("slow plane: %+v, want delayed admissions, every one granted, the breaker closed", s)
				}
			}
			if tables[0] != tables[1] {
				t.Fatalf("two runs printed different tables:\n%s\n---\n%s", tables[0], tables[1])
			}
		})
	}
}

// TestChaosClaimsCatchBadShape: the shape checks name a rate whose
// schedulability rises, falls by p or more, or never revokes, and a gray
// row with an unaccounted connection, attempts over the bound, or no
// quarantine at a flaky rate.
func TestChaosClaimsCatchBadShape(t *testing.T) {
	good := []ChaosCell{{Rate: 0, Sched: 0.91}, {Rate: 0.1, Sched: 0.87, RepairTally: RepairTally{Revoked: 5, Repaired: 4}}}
	if bad := CheckChaosClaims(good); len(bad) != 0 {
		t.Fatalf("good cells flagged: %v", bad)
	}
	for name, mutate := range map[string]func(c []ChaosCell){
		"rises":      func(c []ChaosCell) { c[1].Sched = 0.92 },
		"falls by p": func(c []ChaosCell) { c[1].Sched = 0.80 },
		"no revoke":  func(c []ChaosCell) { c[1].Revoked = 0 },
		"no repair":  func(c []ChaosCell) { c[1].Repaired = 0 },
	} {
		cells := append([]ChaosCell(nil), good...)
		mutate(cells)
		if bad := CheckChaosClaims(cells); len(bad) != 1 || !strings.Contains(bad[0], "p=0.1") {
			t.Errorf("%s: violations %v, want one naming p=0.1", name, bad)
		}
	}
	row := GrayCell{Rate: 0.05, RepairTally: RepairTally{Revoked: 1, Attempts: 3}, Quarantines: 2}
	if bad := CheckGrayClaims([]GrayCell{row, {Rate: 0}}); len(bad) != 0 {
		t.Fatalf("good rows flagged: %v", bad)
	}
	for name, mutate := range map[string]func(c *GrayCell){
		"unaccounted":   func(c *GrayCell) { c.Unaccounted = 1 },
		"over bound":    func(c *GrayCell) { c.Attempts = 9 },
		"no quarantine": func(c *GrayCell) { c.Quarantines = 0 },
	} {
		c := row
		mutate(&c)
		if bad := CheckGrayClaims([]GrayCell{c}); len(bad) != 1 {
			t.Errorf("%s: violations %v, want one", name, bad)
		}
	}
}
