package lower

import (
	"strings"
	"testing"

	"repro/internal/algorithms/editdist"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
)

func antiDiagonalArch(t *testing.T, n, p int) *Architecture {
	t.Helper()
	r := make([]byte, n)
	q := make([]byte, n)
	g, dom, err := editdist.Recurrence(r, q).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt := fm.DefaultTarget(p, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	arch, err := Lower(g, sched, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return arch
}

func TestLowerAntiDiagonalIsLinearSystolicArray(t *testing.T) {
	arch := antiDiagonalArch(t, 16, 4)
	if len(arch.PEs) != 4 {
		t.Fatalf("PEs = %d, want 4", len(arch.PEs))
	}
	if !arch.IsLinearArray() {
		t.Fatalf("anti-diagonal mapping should lower to a linear array:\n%s", arch.Summary())
	}
	// Every PE has exactly the add-class ALU the recurrence needs.
	for _, pe := range arch.PEs {
		alus := pe.ALUs()
		if len(alus) != 1 || alus[0] != tech.OpAdd {
			t.Errorf("PE%v ALUs = %v", pe.Place, alus)
		}
		if pe.RegisterWords == 0 {
			t.Errorf("PE%v has no registers", pe.Place)
		}
		if pe.Utilization <= 0 || pe.Utilization > 1 {
			t.Errorf("PE%v utilization = %g", pe.Place, pe.Utilization)
		}
	}
	// Channels: rightward nearest-neighbour flow plus the wrap path back
	// (which the XY decomposition renders as leftward unit hops).
	for _, ch := range arch.Channels {
		if ch.From.Manhattan(ch.To) != 1 {
			t.Errorf("non-unit channel %v -> %v", ch.From, ch.To)
		}
		if ch.Bits == 0 {
			t.Errorf("channel %v -> %v carries nothing", ch.From, ch.To)
		}
	}
}

func TestLowerSerialMappingIsOnePE(t *testing.T) {
	b := fm.NewBuilder("serialthing")
	x := b.Op(tech.OpMul, 32)
	y := b.Op(tech.OpAdd, 32, x)
	b.MarkOutput(y)
	g := b.Build()
	tgt := fm.DefaultTarget(4, 4)
	arch, err := Lower(g, fm.SerialSchedule(g, tgt, geom.Pt(1, 1)), tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.PEs) != 1 || len(arch.Channels) != 0 {
		t.Fatalf("serial lowering: %d PEs, %d channels", len(arch.PEs), len(arch.Channels))
	}
	pe := arch.PEs[0]
	if pe.Place != geom.Pt(1, 1) {
		t.Errorf("PE at %v", pe.Place)
	}
	alus := pe.ALUs()
	if len(alus) != 2 || alus[0] != tech.OpAdd || alus[1] != tech.OpMul {
		t.Errorf("ALUs = %v", alus)
	}
	if !arch.IsLinearArray() {
		t.Error("a single PE is trivially a linear array")
	}
}

func TestLowerRejectsIllegalMapping(t *testing.T) {
	b := fm.NewBuilder("bad")
	in := b.Input(32)
	op := b.Op(tech.OpAdd, 32, in)
	b.MarkOutput(op)
	g := b.Build()
	tgt := fm.DefaultTarget(4, 1)
	sched := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(3, 0), Time: 0}, // no transit time
	}
	if _, err := Lower(g, sched, tgt); err == nil {
		t.Fatal("illegal mapping specifies no hardware")
	}
}

func TestLowerRoutedThroughPEsExist(t *testing.T) {
	// A flow crossing an unused grid point must instantiate it as a
	// pass-through (the channel has to be anchored in silicon).
	b := fm.NewBuilder("skip")
	in := b.Input(32)
	op := b.Op(tech.OpAdd, 32, in)
	b.MarkOutput(op)
	g := b.Build()
	tgt := fm.DefaultTarget(3, 1)
	sched := fm.Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(2, 0), Time: 18},
	}
	arch, err := Lower(g, sched, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.PEs) != 3 {
		t.Fatalf("PEs = %d, want 3 (incl. pass-through)", len(arch.PEs))
	}
	if len(arch.Channels) != 2 {
		t.Fatalf("channels = %d, want 2 unit hops", len(arch.Channels))
	}
	mid := arch.PEs[1]
	if len(mid.Ops) != 0 {
		t.Errorf("pass-through PE has ops: %v", mid.Ops)
	}
}

func TestSummaryAndVerilog(t *testing.T) {
	arch := antiDiagonalArch(t, 8, 2)
	s := arch.Summary()
	for _, want := range []string{"architecture", "PE(0,0)", "chan", "util"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	v := arch.Verilog()
	for _, want := range []string{"module pe_add", "module top", "pe_add pe_0_0", "wire [31:0] ch0", "endmodule"} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
	// One module definition per distinct PE signature, not per PE.
	if strings.Count(v, "module pe_add(") != 1 {
		t.Errorf("duplicate PE modules:\n%s", v)
	}
}

func TestLowerDeterministic(t *testing.T) {
	a1 := antiDiagonalArch(t, 12, 3)
	a2 := antiDiagonalArch(t, 12, 3)
	if a1.Summary() != a2.Summary() || a1.Verilog() != a2.Verilog() {
		t.Error("lowering is nondeterministic")
	}
}
