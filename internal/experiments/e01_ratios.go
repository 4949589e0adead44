package experiments

import (
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/tech"
)

// E1 reproduces the paper's 5 nm cost ratios by running single operations
// on the machine simulator (ideal routers, so the wire term is isolated
// exactly as in the paper's arithmetic): transporting a 32-bit add result
// 1 mm costs 160x the add; across the ~28.3 mm diagonal of an 800 mm^2
// GPU ~4500x; off chip is an order of magnitude more again, putting an
// off-chip access at ~50,000x the add.
func E1() Result {
	// A 30 x 1 strip at 1 mm pitch: node 0 to node 28 is a 28 mm route,
	// the nearest grid approximation of the 28.28 mm diagonal.
	m, err := machine.NewChecked(machine.Config{
		Grid:               geom.NewGrid(30, 1, 1.0),
		Tech:               tech.N5(),
		RouterDelayPS:      -1,
		RouterEnergyPerBit: -1,
	})
	if err != nil {
		return failure("E1", err)
	}

	measure := func(hops int) float64 {
		m.Reset()
		m.Compute(geom.Pt(0, 0), tech.OpAdd, 32, "add")
		addE := m.Metrics().TotalEnergy
		m.Send(geom.Pt(0, 0), geom.Pt(hops, 0), 1, "ship")
		wireE := m.Metrics().EnergyByKind[traceWire] // network energy
		return wireE / addE
	}

	r1mm := measure(1)
	rDiag := measure(28)

	m.Reset()
	m.Compute(geom.Pt(0, 0), tech.OpAdd, 32, "add")
	addE := m.Metrics().TotalEnergy
	m.Reset()
	m.OffChip(geom.Pt(0, 0), 1, "dram")
	offE := m.Metrics().TotalEnergy
	rOff := offE / addE

	diagE := tech.N5().WireEnergy(32, 28)
	rOffVsDiag := offE / diagE

	t := stats.NewTable("E1: energy relative to a 32-bit add (5 nm)",
		"movement", "paper", "measured", "within")
	ok1 := stats.WithinFactor(r1mm, 160, 1.01)
	ok2 := stats.WithinFactor(rDiag, 4500, 1.05)
	ok3 := stats.WithinFactor(rOff, 50000, 1.05)
	ok4 := rOffVsDiag >= 8 && rOffVsDiag <= 15
	t.AddRow("1 mm of wire", 160.0, r1mm, verdict(ok1))
	t.AddRow("28 mm (chip diagonal)", 4500.0, rDiag, verdict(ok2))
	t.AddRow("off-chip access", 50000.0, rOff, verdict(ok3))
	t.AddRow("off-chip vs diagonal (x)", 10.0, rOffVsDiag, verdict(ok4))
	t.AddNote("grid route is 28 hops x 1 mm; the paper's 28.28 mm diagonal gives 4525x")

	return Result{
		ID:    "E1",
		Claim: "transporting an add result 1mm costs 160x the add; the GPU diagonal ~4500x; off-chip ~50,000x",
		Table: t,
		Pass:  ok1 && ok2 && ok3 && ok4,
		Notes: []string{
			"measured by event counting on the grid-machine simulator with the paper's published constants (no silicon available); ideal routers isolate the wire term",
		},
	}
}
