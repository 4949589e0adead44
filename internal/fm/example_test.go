package fm_test

import (
	"fmt"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Example prices one function under two mappings: the serial projection
// moves nothing; the two-node mapping pays the paper's 160x wire premium
// per millimetre.
func Example() {
	b := fm.NewBuilder("pair-sum")
	x := b.Input(32)
	y := b.Input(32)
	sum := b.Op(tech.OpAdd, 32, x, y)
	b.MarkOutput(sum)
	g := b.Build()

	tgt := fm.DefaultTarget(2, 1) // two nodes, 1 mm apart, 5 nm constants

	serial := fm.SerialSchedule(g, tgt, geom.Pt(0, 0))
	cs, _ := fm.Evaluate(g, serial, tgt, fm.EvalOptions{})

	split := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0}, // x at node 0
		{Place: geom.Pt(1, 0), Time: 0}, // y at node 1
		{Place: geom.Pt(0, 0), Time: 9}, // add waits one hop (9 cycles)
	}
	cp, _ := fm.Evaluate(g, split, tgt, fm.EvalOptions{})

	fmt.Printf("serial: compute=%.0ffJ wire=%.0ffJ\n", cs.ComputeEnergy, cs.WireEnergy)
	fmt.Printf("split:  compute=%.0ffJ wire=%.0ffJ (one 32-bit word, one hop)\n",
		cp.ComputeEnergy, cp.WireEnergy)
	fmt.Printf("wire/add ratio: %.0fx\n", cp.WireEnergy/cp.ComputeEnergy)
	// Output:
	// serial: compute=16fJ wire=0fJ
	// split:  compute=16fJ wire=2816fJ (one 32-bit word, one hop)
	// wire/add ratio: 176x
}

// ExampleCheck shows the legality checker rejecting a mapping that
// ignores transit time, with a typed, actionable error.
func ExampleCheck() {
	b := fm.NewBuilder("bad")
	in := b.Input(32)
	op := b.Op(tech.OpAdd, 32, in)
	b.MarkOutput(op)
	g := b.Build()

	tgt := fm.DefaultTarget(4, 1)
	sched := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(3, 0), Time: 5}, // 3 hops away needs 27 cycles
	}
	fmt.Println(fm.Check(g, sched, tgt))
	// Output:
	// fm: causality violated: node 1 starts at cycle 5 but its input from node 0 (3 hops away) is only ready at cycle 27
}

// ExampleRecurrence materializes the paper's edit-distance dependence
// structure and maps it with the paper's own fragment.
func ExampleRecurrence() {
	rec := fm.Recurrence{
		Name: "H",
		Dims: []int{8, 8},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}
	g, dom, _ := rec.Materialize()

	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 16
	stride, _ := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, 8, 4)
	sched, _ := fm.AntiDiagonalScheduleChecked(dom, 4, stride, geom.Pt(0, 0))

	fmt.Printf("cells: %d, longest chain: %d\n", g.CountOps(), g.Depth())
	fmt.Printf("legal: %v, places used: %d\n", fm.Check(g, sched, tgt) == nil, sched.PlacesUsed())
	// Output:
	// cells: 64, longest chain: 15
	// legal: true, places used: 4
}
