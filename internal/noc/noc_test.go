package noc

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/trace"
)

// mustNew is NewChecked for configurations a test knows are valid.
func mustNew(cfg Config) *Network {
	n, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

func testNet(mode Mode) *Network {
	return mustNew(Config{
		Grid: geom.NewGrid(8, 8, 1.0),
		Tech: tech.N5(),
		Mode: mode,
	})
}

func TestRouteXY(t *testing.T) {
	n := testNet(CutThrough)
	r := n.Route(geom.Pt(1, 1), geom.Pt(3, 2))
	want := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(3, 1), geom.Pt(3, 2)}
	if len(r) != len(want) {
		t.Fatalf("route len = %d, want %d (%v)", len(r), len(want), r)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("route[%d] = %v, want %v", i, r[i], want[i])
		}
	}
	// Route length always equals Manhattan distance + 1.
	for _, c := range []struct{ a, b geom.Point }{
		{geom.Pt(0, 0), geom.Pt(7, 7)},
		{geom.Pt(5, 2), geom.Pt(5, 2)},
		{geom.Pt(7, 0), geom.Pt(0, 7)},
	} {
		r := n.Route(c.a, c.b)
		if len(r) != c.a.Manhattan(c.b)+1 {
			t.Errorf("route %v->%v has %d points", c.a, c.b, len(r))
		}
		// Adjacent points differ by exactly one hop.
		for i := 1; i < len(r); i++ {
			if r[i-1].Manhattan(r[i]) != 1 {
				t.Errorf("route %v->%v not unit-stepped at %d", c.a, c.b, i)
			}
		}
	}
}

func TestUncontendedLatencyModes(t *testing.T) {
	ct := testNet(CutThrough)
	sf := testNet(StoreAndForward)
	per := ct.hopLatency() // 800 (wire/mm * 1mm pitch) + 100 (router)

	// Single-flit message: both modes identical.
	if a, b := ct.UncontendedLatency(4, 32), sf.UncontendedLatency(4, 32); a != b {
		t.Errorf("single flit: CT %g != SF %g", a, b)
	}
	if got := ct.UncontendedLatency(4, 32); got != 4*per {
		t.Errorf("CT 4 hops 1 flit = %g, want %g", got, 4*per)
	}
	// Multi-flit: SF pays serialization per hop, CT once.
	// 128 bits = 4 flits.
	ctLat := ct.UncontendedLatency(4, 128)
	sfLat := sf.UncontendedLatency(4, 128)
	if wantCT := 4*per + 3*per; ctLat != wantCT {
		t.Errorf("CT = %g, want %g", ctLat, wantCT)
	}
	if wantSF := 4 * (per + 3*per); sfLat != wantSF {
		t.Errorf("SF = %g, want %g", sfLat, wantSF)
	}
	if ctLat >= sfLat {
		t.Errorf("cut-through (%g) should beat store-and-forward (%g) on multi-flit", ctLat, sfLat)
	}
	// Zero hops is free.
	if l := ct.UncontendedLatency(0, 1024); l != 0 {
		t.Errorf("0 hops = %g", l)
	}
}

func TestMessageEnergyMatchesTech(t *testing.T) {
	n := testNet(CutThrough)
	p := tech.N5()
	// 3 hops x 1mm pitch of 32-bit wire + 3 hops of router switching.
	want := p.WireEnergy(32, 3) + 8*32*3
	if got := n.MessageEnergy(3, 32); math.Abs(got-want) > 1e-9 {
		t.Errorf("MessageEnergy = %g, want %g", got, want)
	}
}

func TestSendSelfIsFree(t *testing.T) {
	n := testNet(CutThrough)
	arr, e := n.Send(100, geom.Pt(2, 2), geom.Pt(2, 2), 64)
	if arr != 100 || e != 0 {
		t.Errorf("self-send = (%g, %g)", arr, e)
	}
	if s := n.Stats(); s.Messages != 0 {
		t.Errorf("self-send counted as message: %+v", s)
	}
}

func TestSendUncontendedMatchesFormula(t *testing.T) {
	for _, mode := range []Mode{CutThrough, StoreAndForward} {
		n := testNet(mode)
		src, dst := geom.Pt(0, 0), geom.Pt(3, 2)
		arr, e := n.Send(50, src, dst, 96)
		wantLat := n.UncontendedLatency(5, 96)
		if math.Abs(arr-(50+wantLat)) > 1e-9 {
			t.Errorf("%v: arrival = %g, want %g", mode, arr, 50+wantLat)
		}
		if wantE := n.MessageEnergy(5, 96); math.Abs(e-wantE) > 1e-9 {
			t.Errorf("%v: energy = %g, want %g", mode, e, wantE)
		}
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	n := testNet(CutThrough)
	// Two messages injected at t=0 share link (0,0)->(1,0).
	a1, _ := n.Send(0, geom.Pt(0, 0), geom.Pt(2, 0), 32)
	a2, _ := n.Send(0, geom.Pt(0, 0), geom.Pt(3, 0), 32)
	if a2 <= a1 {
		t.Errorf("second message (%g) should be delayed past first (%g)", a2, a1)
	}
	// Disjoint routes do not interfere.
	n2 := testNet(CutThrough)
	b1, _ := n2.Send(0, geom.Pt(0, 0), geom.Pt(1, 0), 32)
	b2, _ := n2.Send(0, geom.Pt(0, 7), geom.Pt(1, 7), 32)
	if b1 != b2 {
		t.Errorf("disjoint messages should have equal latency: %g vs %g", b1, b2)
	}
}

func TestContentionMonotoneInLoad(t *testing.T) {
	// Arrival of the k-th message over one link is nondecreasing in k,
	// and grows linearly once the link saturates.
	n := testNet(CutThrough)
	var last float64
	for k := 0; k < 10; k++ {
		arr, _ := n.Send(0, geom.Pt(0, 0), geom.Pt(1, 0), 128)
		if arr < last {
			t.Fatalf("arrival %g decreased below %g at message %d", arr, last, k)
		}
		last = arr
	}
	occ := float64(n.flits(128)) * n.hopLatency()
	wantLast := 9*occ + n.UncontendedLatency(1, 128)
	if math.Abs(last-wantLast) > 1e-6 {
		t.Errorf("10th arrival = %g, want %g", last, wantLast)
	}
}

func TestStatsAndReset(t *testing.T) {
	n := testNet(CutThrough)
	n.Send(0, geom.Pt(0, 0), geom.Pt(2, 0), 32) // 2 hops
	n.Send(0, geom.Pt(0, 0), geom.Pt(1, 0), 32) // 1 hop, shares first link
	s := n.Stats()
	if s.Messages != 2 {
		t.Errorf("Messages = %d", s.Messages)
	}
	if s.BitHops != 32*2+32*1 {
		t.Errorf("BitHops = %d", s.BitHops)
	}
	if s.MaxLinkBits != 64 {
		t.Errorf("MaxLinkBits = %d", s.MaxLinkBits)
	}
	if s.BusiestLinkFrom != geom.Pt(0, 0) || s.BusiestLinkTo != geom.Pt(1, 0) {
		t.Errorf("busiest link = %v->%v", s.BusiestLinkFrom, s.BusiestLinkTo)
	}
	if s.Energy <= 0 {
		t.Errorf("Energy = %g", s.Energy)
	}
	n.Reset()
	if s := n.Stats(); s.Messages != 0 || s.BitHops != 0 || s.Energy != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
	// After reset the link is free again.
	arr, _ := n.Send(0, geom.Pt(0, 0), geom.Pt(1, 0), 32)
	if arr != n.UncontendedLatency(1, 32) {
		t.Errorf("post-reset arrival = %g", arr)
	}
}

func TestSendTraces(t *testing.T) {
	tr := trace.New()
	n := mustNew(Config{Grid: geom.NewGrid(4, 4, 1), Tech: tech.N5(), Trace: tr})
	n.Send(0, geom.Pt(0, 0), geom.Pt(3, 3), 32)
	if tr.Len() != 1 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	e := tr.Events()[0]
	if e.Kind != trace.KindWire || e.Place != geom.Pt(0, 0) || e.Dst != geom.Pt(3, 3) {
		t.Errorf("bad trace event %+v", e)
	}
}

func TestDefaults(t *testing.T) {
	n := mustNew(Config{Grid: geom.NewGrid(2, 2, 1), Tech: tech.N5()})
	cfg := n.Config()
	if cfg.LinkWidthBits != 32 || cfg.RouterDelayPS != 100 || cfg.RouterEnergyPerBit != 8 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestPanics(t *testing.T) {
	n := testNet(CutThrough)
	assertPanics(t, "off-grid src", func() { n.Send(0, geom.Pt(-1, 0), geom.Pt(0, 0), 32) })
	assertPanics(t, "off-grid dst", func() { n.Send(0, geom.Pt(0, 0), geom.Pt(8, 0), 32) })
	assertPanics(t, "zero bits", func() { n.Send(0, geom.Pt(0, 0), geom.Pt(1, 0), 0) })
	assertPanics(t, "negative time", func() { n.Send(-1, geom.Pt(0, 0), geom.Pt(1, 0), 32) })
	if _, err := NewChecked(Config{Grid: geom.NewGrid(2, 2, 1)}); err == nil {
		t.Error("bad tech: NewChecked accepted a config without technology parameters")
	}
}

func TestModeString(t *testing.T) {
	if CutThrough.String() != "cut-through" || StoreAndForward.String() != "store-and-forward" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
