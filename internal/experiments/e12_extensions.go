package experiments

import (
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/workspan"
)

// E12 reproduces the two model extensions the panelists gesture at:
// Blelloch's "reasonably simple extensions that support accounting for
// locality, as well as asymmetry in read-write costs", and Vishkin's
// "many-core computing can offer improvement by 4-5 orders of magnitude
// over single cores" headroom figure, demonstrated as an embarrassingly
// parallel function mapped across a 100x100 grid versus the serial
// projection.
func E12() Result {
	t := stats.NewTable("E12: model extensions",
		"experiment", "quantity", "value", "expectation", "within")
	pass := true

	// Read/write asymmetry: the blocked scan writes each output once;
	// Kogge-Stone rewrites the array every round. The absolute penalty
	// grows linearly with the write/read cost ratio omega.
	const n = 1 << 16
	gap1 := workspan.KoggeStoneMemCost(n, workspan.Symmetric()) -
		workspan.ScanMemCost(n, 1024, workspan.Symmetric())
	gap8 := workspan.KoggeStoneMemCost(n, workspan.Asymmetric(8)) -
		workspan.ScanMemCost(n, 1024, workspan.Asymmetric(8))
	okAsym := gap8 > 2*gap1
	pass = pass && okAsym
	t.AddRow("write asymmetry (omega=8)", "extra cost of write-heavy scan", gap8/gap1,
		"grows ~linearly with omega", verdict(okAsym))

	// Many-core headroom: 10,000 independent ops on a 100x100 grid.
	const k = 10000
	b := fm.NewBuilder("headroom")
	for i := 0; i < k; i++ {
		b.MarkOutput(b.Op(tech.OpMul, 32))
	}
	g := b.Build()
	// The serial projection keeps all 10^4 results live at one node, so
	// its tile must hold them (the parallel mapping needs one word each).
	tgt := fm.DefaultTarget(100, 100)
	tgt.MemWordsPerNode = 16384
	sched := fm.FromFunc(g, func(nd fm.NodeID) fm.Assignment {
		return fm.Assignment{Place: tgt.Grid.At(int(nd) % tgt.Grid.Nodes()), Time: 0}
	})
	cp, err := fm.Evaluate(g, sched, tgt, fm.EvalOptions{})
	if err != nil {
		return failure("E12", err)
	}
	cs, err := fm.Evaluate(g, fm.SerialSchedule(g, tgt, geom.Pt(0, 0)), tgt, fm.EvalOptions{})
	if err != nil {
		return failure("E12", err)
	}
	speedup := float64(cs.Cycles) / float64(cp.Cycles)
	okHeadroom := speedup >= 1e4
	pass = pass && okHeadroom
	t.AddRow("many-core headroom", "10^4-node grid speedup", speedup,
		"4-5 orders of magnitude", verdict(okHeadroom))

	// NoC switching ablation (A2): cut-through beats store-and-forward on
	// multi-flit messages; the model exposes switching discipline as a
	// first-class cost.
	sfGap, err := storeForwardGap()
	if err != nil {
		return failure("E12", err)
	}
	okNoC := sfGap > 1.5
	pass = pass && okNoC
	t.AddRow("NoC ablation (A2)", "SF/CT latency, 16-flit message, 8 hops", sfGap,
		">1.5x", verdict(okNoC))

	return Result{
		ID:    "E12",
		Claim: "the models extend simply: write-asymmetric memory penalizes write-heavy algorithms; a many-core grid offers 4-5 orders of magnitude over a single core",
		Table: t,
		Pass:  pass,
	}
}

// storeForwardGap sends a 16-flit (512-bit) message over 8 hops of a
// 10x1 strip machine under each switching mode and returns the
// store-and-forward / cut-through latency ratio. Uncontended:
// cut-through pays serialization once, store-and-forward per hop.
func storeForwardGap() (float64, error) {
	var arrival [2]float64
	for i, mode := range []noc.Mode{noc.CutThrough, noc.StoreAndForward} {
		m, err := machine.NewChecked(machine.Config{Grid: geom.NewGrid(10, 1, 1.0), Tech: tech.N5(), NoCMode: mode})
		if err != nil {
			return 0, err
		}
		arrival[i] = m.Send(geom.Pt(0, 0), geom.Pt(8, 0), 16, "big")
	}
	return arrival[1] / arrival[0], nil
}
