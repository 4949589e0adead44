package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass runs the full reproduction suite: every
// experiment must regenerate its claim within tolerance. This is the
// repository's headline integration test.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run()
			if r.ID != e.ID {
				t.Errorf("result ID %q != registered %q", r.ID, e.ID)
			}
			if !r.Pass {
				var b strings.Builder
				if _, err := r.WriteTo(&b); err != nil {
					t.Fatal(err)
				}
				t.Errorf("experiment failed:\n%s", b.String())
			}
			if r.Table == nil || r.Table.Rows() == 0 {
				t.Error("experiment produced no table rows")
			}
			if r.Claim == "" {
				t.Error("experiment has no claim")
			}
		})
	}
}

// BenchmarkExperiments times every experiment as cmd/panelbench runs it
// and TestAllExperimentsPass gates it: one sub-benchmark per All() entry,
// named by its ID, reporting the result's Metrics. A failed verdict is
// logged, not failed: the claims are TestAllExperimentsPass's to gate,
// and E8 and E20 carry wall-clock verdicts. With -benchtime=1x this is a
// smoke run of every experiment.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = e.Run()
			}
			for _, m := range r.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
			if !r.Pass {
				var sb strings.Builder
				if _, err := r.WriteTo(&sb); err != nil {
					b.Fatal(err)
				}
				b.Logf("verdict FAIL (gated by TestAllExperimentsPass, not here):\n%s", sb.String())
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	es := All()
	if len(es) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(es))
	}
	seen := map[string]bool{}
	for i, e := range es {
		if e.ID == "" || e.Name == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestResultRendering(t *testing.T) {
	r := All()[0].Run()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"E1", "verdict:", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
}

func TestFailureHelper(t *testing.T) {
	r := failure("EX", constError("boom"))
	if r.Pass || r.ID != "EX" || r.Table.Rows() != 1 {
		t.Errorf("failure helper wrong: %+v", r)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Every experiment except the wall-clock ones (E8 times goroutine
	// pools, E20 times anneal move pricing) must render identically
	// across runs. E20's search *results* are still deterministic —
	// TestE20TrajectoriesIdentical pins that — only its rates vary.
	for _, e := range All() {
		if e.ID == "E8" || e.ID == "E20" {
			continue
		}
		a := render(t, e)
		b := render(t, e)
		if a != b {
			t.Errorf("%s is nondeterministic", e.ID)
		}
	}
}

func render(t *testing.T, e Experiment) string {
	t.Helper()
	var b strings.Builder
	if _, err := e.Run().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
