package fault

import (
	"math"
	"reflect"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return in
}

func TestValidate(t *testing.T) {
	for _, cfg := range []Config{
		{Rate: -0.1},
		{Rate: 1.1},
		{Rate: math.NaN()},
		{Rate: 0.5, StallPS: -1},
		{Rate: 0.5, SpikePS: -1},
		{Rate: 0.5, BackoffPS: -1},
		{Rate: 0.5, MaxRetries: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): expected error", cfg)
		}
	}
	if _, err := New(Config{Seed: 1, Rate: 0.5}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDisabled(t *testing.T) {
	var nilIn *Injector
	if nilIn.Enabled() {
		t.Error("nil injector reports enabled")
	}
	if s := nilIn.Stats(); s != (Stats{}) {
		t.Errorf("nil injector stats = %+v", s)
	}
	nilIn.Reset() // must not panic

	in := mustNew(t, Config{Seed: 7, Rate: 0})
	if in.Enabled() {
		t.Error("rate-0 injector reports enabled")
	}
	for i := 0; i < 100; i++ {
		if in.Stall(i) != 0 {
			t.Fatal("rate-0 injector stalled")
		}
		if in.Spike(i, i+1) != 0 {
			t.Fatal("rate-0 injector spiked")
		}
		if r, b := in.Drop(i, i+1); r != 0 || b != 0 {
			t.Fatal("rate-0 injector dropped")
		}
	}
	if s := in.Stats(); s.Events() != 0 || s.InjectedPS() != 0 {
		t.Errorf("rate-0 stats = %+v", s)
	}
}

// drain exercises every query kind in a fixed pattern and returns the
// full decision record, so two injectors can be compared decision by
// decision.
func drain(in *Injector) []float64 {
	var out []float64
	for i := 0; i < 64; i++ {
		out = append(out, in.Stall(i%5))
		out = append(out, in.Spike(i%4, (i+1)%4))
		r, b := in.Drop(i%3, (i+1)%3)
		out = append(out, float64(r), b)
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.2}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	ra, rb := drain(a), drain(b)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("two injectors with the same config disagree")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats disagree: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Events() == 0 {
		t.Fatal("rate 0.2 injected nothing over 256 decisions")
	}
	// Reset replays the identical schedule.
	a.Reset()
	if !reflect.DeepEqual(drain(a), ra) {
		t.Fatal("post-Reset replay diverged")
	}
}

func TestSeedAndRateChangeSchedule(t *testing.T) {
	base := drain(mustNew(t, Config{Seed: 1, Rate: 0.3}))
	if reflect.DeepEqual(base, drain(mustNew(t, Config{Seed: 2, Rate: 0.3}))) {
		t.Error("different seeds produced identical schedules")
	}
	if reflect.DeepEqual(base, drain(mustNew(t, Config{Seed: 1, Rate: 0.9}))) {
		t.Error("different rates produced identical schedules")
	}
}

func TestScheduleMatchesQueries(t *testing.T) {
	// The Schedule generator and the consuming queries must agree: the
	// k-th Stall at a node faults iff Schedule reports decision k true.
	in := mustNew(t, Config{Seed: 9, Rate: 0.4})
	const node, n = 3, 200
	want := in.Schedule(Site(ClassStall, node, 0), n)
	for k := 0; k < n; k++ {
		got := in.Stall(node) > 0
		if got != want[k] {
			t.Fatalf("decision %d: Stall=%v, Schedule=%v", k, got, want[k])
		}
	}
}

// TestScheduleGolden pins one site's exact fault decisions. The other
// schedule tests compare runs with each other, so a changed mixer would
// pass them all; this one fails.
func TestScheduleGolden(t *testing.T) {
	in := mustNew(t, Config{Seed: 7, Rate: 0.25})
	const want = "0100000100000000010100000000000000000110000000000000001000111000"
	got := make([]byte, 0, len(want))
	for _, v := range in.Schedule(Site(ClassStall, 3, 4), len(want)) {
		if v {
			got = append(got, '1')
		} else {
			got = append(got, '0')
		}
	}
	if string(got) != want {
		t.Fatalf("schedule\n got %s\nwant %s", got, want)
	}
}

func TestDropRetriesBounded(t *testing.T) {
	in := mustNew(t, Config{Seed: 5, Rate: 1, MaxRetries: 4, BackoffPS: 100})
	r, b := in.Drop(0, 1)
	if r != 4 {
		t.Fatalf("rate-1 drop retries = %d, want MaxRetries=4", r)
	}
	// Exponential backoff: 100 + 200 + 400 + 800.
	if b != 1500 {
		t.Fatalf("backoff = %g, want 1500", b)
	}
}

func TestSiteIndependence(t *testing.T) {
	// Distinct sites draw from distinct streams: consuming one site's
	// schedule must not perturb another's.
	cfg := Config{Seed: 11, Rate: 0.5}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	for i := 0; i < 50; i++ {
		a.Stall(1) // extra traffic on node 1 only
	}
	for i := 0; i < 50; i++ {
		if a.Stall(2) != b.Stall(2) {
			t.Fatalf("node 2 schedule perturbed by node 1 traffic at decision %d", i)
		}
	}
}

// FuzzFaultInjector fuzzes the injector's schedule generator: for any
// (seed, rate, site, n) the schedule must be deterministic, respect the
// rate's boundary cases, and be monotone in rate under a shared seed
// (raising the rate may only add faults, never remove them — the
// property that makes fault-rate sweeps meaningful).
func FuzzFaultInjector(f *testing.F) {
	f.Add(int64(1), 0.1, uint64(42), 64)
	f.Add(int64(-7), 0.999, uint64(0), 128)
	f.Add(int64(0), 0.0, uint64(1)<<60, 16)
	f.Add(int64(123456789), 1.0, uint64(3), 32)
	f.Fuzz(func(t *testing.T, seed int64, rate float64, site uint64, n int) {
		if math.IsNaN(rate) || rate < 0 || rate > 1 {
			if _, err := New(Config{Seed: seed, Rate: rate}); err == nil {
				t.Fatalf("invalid rate %g accepted", rate)
			}
			return
		}
		if n < 0 || n > 4096 {
			n = 4096
		}
		in, err := New(Config{Seed: seed, Rate: rate})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s1 := in.Schedule(site, n)
		s2 := in.Schedule(site, n)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatal("schedule not deterministic")
		}
		if len(s1) != n && !(n <= 0 && s1 == nil) {
			t.Fatalf("schedule length %d, want %d", len(s1), n)
		}
		faults := 0
		for _, d := range s1 {
			if d {
				faults++
			}
		}
		if rate == 0 && faults != 0 {
			t.Fatalf("rate 0 produced %d faults", faults)
		}
		if rate == 1 && faults != n {
			t.Fatalf("rate 1 produced %d/%d faults", faults, n)
		}
		// Monotonicity: the faults at rate r are a subset of those at
		// min(2r, 1) because each decision compares one fixed uniform
		// against the rate.
		higher, err := New(Config{Seed: seed, Rate: math.Min(2*rate, 1)})
		if err != nil {
			t.Fatalf("New(higher): %v", err)
		}
		sh := higher.Schedule(site, n)
		for k, d := range s1 {
			if d && !sh[k] {
				t.Fatalf("decision %d faults at rate %g but not at %g", k, rate, math.Min(2*rate, 1))
			}
		}
	})
}
