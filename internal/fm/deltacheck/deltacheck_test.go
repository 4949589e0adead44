package deltacheck

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fm"
)

func TestCheckerReplaysRandomWalk(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := fuzzGraph(seed, 70)
		tgt := fm.DefaultTarget(4, 4)
		c, err := New(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Reset(fm.ListSchedule(g, tgt)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for mv := 0; mv < 250; mv++ {
			n := fm.NodeID(rng.Intn(g.NumNodes()))
			to := tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
			if err := c.propose(n, to, rng.Intn(2) == 0); err != nil {
				t.Fatalf("seed %d move %d: %v", seed, mv, err)
			}
			if rng.Intn(2) == 0 {
				if err := c.commitChecked(); err != nil {
					t.Fatalf("seed %d move %d: %v", seed, mv, err)
				}
			}
		}
		c.Snapshot(nil)
	}
}

func TestCheckerResetRejectsBadSchedule(t *testing.T) {
	g := fuzzGraph(3, 10)
	tgt := fm.DefaultTarget(2, 2)
	c, err := New(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reset(make(fm.Schedule, 1)); err == nil {
		t.Fatal("Reset accepted a short schedule")
	}
}

func TestDiffCostsReportsEveryField(t *testing.T) {
	a := fm.Cost{Cycles: 1, TimePS: 2, EnergyFJ: 3, ComputeEnergy: 4, WireEnergy: 5,
		OffChipEnergy: 6, BitHops: 7, Messages: 8, PeakWordsPerNode: 9, PlacesUsed: 10, Ops: 11}
	d := diffCosts(a, fm.Cost{})
	for _, field := range []string{"Cycles", "TimePS", "EnergyFJ", "ComputeEnergy", "WireEnergy",
		"OffChipEnergy", "BitHops", "Messages", "PeakWordsPerNode", "PlacesUsed", "Ops"} {
		if !strings.Contains(d, field) {
			t.Errorf("diff %q misses field %s", d, field)
		}
	}
	if diffCosts(a, a) != "" {
		t.Error("identical costs reported as different")
	}
}
