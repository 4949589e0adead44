package noc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func torusNet() *Network {
	return mustNew(Config{Grid: geom.NewGrid(8, 8, 1.0), Tech: tech.N5(), Topology: Torus})
}

func TestTorusRouteTakesWrapLink(t *testing.T) {
	n := torusNet()
	// (0,0) -> (7,0): one hop backwards over the wrap, not 7 forward.
	r := n.Route(geom.Pt(0, 0), geom.Pt(7, 0))
	if len(r) != 2 {
		t.Fatalf("route = %v, want the single wrap hop", r)
	}
	if r[1] != geom.Pt(7, 0) {
		t.Errorf("route = %v", r)
	}
	// (1,1) -> (6,6): 3 hops each dimension via wrap = 6 total.
	r = n.Route(geom.Pt(1, 1), geom.Pt(6, 6))
	if len(r)-1 != 6 {
		t.Errorf("route length = %d, want 6", len(r)-1)
	}
	// Route length always equals Distance.
	for _, c := range []struct{ a, b geom.Point }{
		{geom.Pt(0, 0), geom.Pt(4, 4)},
		{geom.Pt(2, 7), geom.Pt(5, 0)},
		{geom.Pt(3, 3), geom.Pt(3, 3)},
	} {
		if got := len(n.Route(c.a, c.b)) - 1; got != n.Distance(c.a, c.b) {
			t.Errorf("%v->%v: route %d != distance %d", c.a, c.b, got, n.Distance(c.a, c.b))
		}
	}
}

func TestTorusDistanceNeverExceedsMesh(t *testing.T) {
	tor := torusNet()
	mesh := mustNew(Config{Grid: geom.NewGrid(8, 8, 1.0), Tech: tech.N5()})
	improved := 0
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			pa, pb := tor.cfg.Grid.At(a), tor.cfg.Grid.At(b)
			dt, dm := tor.Distance(pa, pb), mesh.Distance(pa, pb)
			if dt > dm {
				t.Fatalf("torus distance %d > mesh %d for %v->%v", dt, dm, pa, pb)
			}
			if dt < dm {
				improved++
			}
		}
	}
	if improved == 0 {
		t.Error("torus should shorten some routes")
	}
	// Worst case on an 8x8: mesh 14, torus 8.
	if d := tor.Distance(geom.Pt(0, 0), geom.Pt(7, 7)); d != 2 {
		t.Errorf("corner-to-corner torus distance = %d, want 2 (one wrap each way)", d)
	}
}

func TestTorusAverageDistanceBeatsMesh(t *testing.T) {
	tor := torusNet()
	mesh := mustNew(Config{Grid: geom.NewGrid(8, 8, 1.0), Tech: tech.N5()})
	var st, sm int
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			pa, pb := tor.cfg.Grid.At(a), tor.cfg.Grid.At(b)
			st += tor.Distance(pa, pb)
			sm += mesh.Distance(pa, pb)
		}
	}
	// Theory: mean hop distance ~ 2*k/3 on a k-ary mesh dimension vs k/4
	// on the torus dimension; expect a ~25%+ improvement overall.
	if float64(st) > 0.8*float64(sm) {
		t.Errorf("torus average %d should be well below mesh %d", st, sm)
	}
}

func TestTorusSendMatchesRoute(t *testing.T) {
	n := torusNet()
	arr, e := n.Send(0, geom.Pt(0, 3), geom.Pt(7, 3), 32)
	if want := n.UncontendedLatency(1, 32); arr != want {
		t.Errorf("wrap send latency = %g, want %g", arr, want)
	}
	if want := n.MessageEnergy(1, 32); e != want {
		t.Errorf("wrap send energy = %g, want %g", e, want)
	}
}

func TestTopologyString(t *testing.T) {
	if Mesh.String() != "mesh" || Torus.String() != "torus" {
		t.Error("topology strings wrong")
	}
	if Topology(5).String() != "Topology(5)" {
		t.Error("unknown topology string")
	}
}
