package repro

import (
	"strings"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
)

// TestFacadeQuickstart exercises the public facade the way the README's
// quickstart does: build a function, map it two ways, compare costs.
func TestFacadeQuickstart(t *testing.T) {
	b := NewBuilder("quickstart")
	x := b.Input(32)
	y := b.Input(32)
	sum := b.Op(tech.OpAdd, 32, x, y)
	b.MarkOutput(sum)
	g := b.Build()

	tgt := DefaultTarget(4, 4)
	serial := SerialSchedule(g, tgt, Pt(0, 0))
	if err := Check(g, serial, tgt); err != nil {
		t.Fatal(err)
	}
	c, err := Evaluate(g, serial, tgt, fm.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops != 1 || c.WireEnergy != 0 {
		t.Errorf("quickstart cost = %v", c)
	}
	def := ListSchedule(g, tgt)
	if err := Check(g, def, tgt); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeMachine drives the re-exported machine simulator.
func TestFacadeMachine(t *testing.T) {
	m, err := NewMachine(MachineConfig{Grid: geom.NewGrid(4, 4, 1.0), Tech: N5()})
	if err != nil {
		t.Fatal(err)
	}
	m.Compute(Pt(0, 0), tech.OpAdd, 32, "x")
	if m.Metrics().Ops != 1 {
		t.Error("machine facade broken")
	}
}

// TestFacadePool drives the re-exported work-span runtime.
func TestFacadePool(t *testing.T) {
	pool := NewPool(2, WorkStealing)
	defer pool.Close()
	ran := false
	pool.Run(func(c *Ctx) { ran = true })
	if !ran {
		t.Error("pool facade broken")
	}
	if CentralQueue == WorkStealing {
		t.Error("modes must differ")
	}
}

// TestFacadeExperiments lists the reproduction suite.
func TestFacadeExperiments(t *testing.T) {
	es := Experiments()
	if len(es) != 20 {
		t.Fatalf("%d experiments", len(es))
	}
	r := es[0].Run()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Errorf("E1 failed:\n%s", sb.String())
	}
}
