package experiments

import (
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/tech"
)

// E2 reproduces "the energy overhead of an ADD instruction is 10,000x
// times more than the energy required to do the add" by running the same
// 1000-add program on two machines: one charging the conventional-CPU
// instruction-delivery pipeline (fetch/decode/rename/issue/ROB) per
// operation, one not — Dally's argument that the serial-instruction-
// stream abstraction costs four orders of magnitude.
func E2() Result {
	const ops = 1000
	run := func(overhead bool) (machine.Metrics, error) {
		m, err := machine.NewChecked(machine.Config{
			Grid:        geom.NewGrid(2, 2, 1.0),
			Tech:        tech.N5(),
			CPUOverhead: overhead,
		})
		if err != nil {
			return machine.Metrics{}, err
		}
		for i := 0; i < ops; i++ {
			m.Compute(geom.Pt(0, 0), tech.OpAdd, 32, "add")
		}
		return m.Metrics(), nil
	}
	lean, err := run(false)
	if err != nil {
		return failure("E2", err)
	}
	cpu, err := run(true)
	if err != nil {
		return failure("E2", err)
	}

	ratio := cpu.TotalEnergy / lean.TotalEnergy
	overheadOnly := cpu.EnergyByKind[traceOverhead] / lean.TotalEnergy

	t := stats.NewTable("E2: conventional-CPU energy per executed add",
		"quantity", "paper", "measured", "within")
	ok1 := stats.WithinFactor(overheadOnly, 10000, 1.01)
	ok2 := stats.WithinFactor(ratio, 10001, 1.01)
	t.AddRow("instruction overhead / add energy", 10000.0, overheadOnly, verdict(ok1))
	t.AddRow("total CPU energy / bare add", 10001.0, ratio, verdict(ok2))
	t.AddNote("%d adds; overhead charged per instruction at %g fJ", ops, tech.N5().InstrOverheadEnergy)

	return Result{
		ID:    "E2",
		Claim: "a conventional CPU spends ~10,000x the add's energy delivering the ADD instruction",
		Table: t,
		Pass:  ok1 && ok2,
		Notes: []string{"the overhead constant is calibrated to the paper's ratio; the experiment verifies the simulator charges it per instruction, not per program"},
	}
}
