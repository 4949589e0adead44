package search

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/workspan"
)

// batchSchedules builds a mix of distinct and duplicated legal schedules
// of g for batching tests: the list schedule, the serial schedule, and
// repeats of both.
func batchSchedules(g *fm.Graph, tgt fm.Target) []fm.Schedule {
	list := fm.ListSchedule(g, tgt)
	serial := fm.SerialSchedule(g, tgt, geom.Pt(0, 0))
	shifted := list.ShiftTime(3)
	return []fm.Schedule{list, serial, list, shifted, serial, list}
}

func TestEvalBatchMatchesEvaluateInOrder(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	scheds := batchSchedules(g, tgt)

	costs, err := EvalBatch(context.Background(), nil, NewEvalCache(), g, g.Fingerprint(), scheds, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(scheds) {
		t.Fatalf("got %d costs for %d schedules", len(costs), len(scheds))
	}
	for i, s := range scheds {
		want, err := fm.Evaluate(g, s, tgt, fm.EvalOptions{SkipCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if costs[i] != want {
			t.Errorf("schedule %d: batch cost %+v, direct cost %+v", i, costs[i], want)
		}
	}
}

func TestEvalBatchDedupsBySchedule(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	scheds := batchSchedules(g, tgt) // 3 distinct schedules among 6

	cache := NewEvalCache()
	if _, err := EvalBatch(context.Background(), nil, cache, g, g.Fingerprint(), scheds, tgt); err != nil {
		t.Fatal(err)
	}
	st := cache.SnapshotStats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (one per distinct schedule)", st.Misses)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 (duplicates dedup before the cache)", st.Hits)
	}
	if st.Entries != 3 {
		t.Errorf("entries = %d, want 3", st.Entries)
	}
}

func TestEvalBatchPoolMatchesInline(t *testing.T) {
	g, _ := smallRec(t, 8)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	// Enough distinct schedules to clear the inline threshold.
	var scheds []fm.Schedule
	list := fm.ListSchedule(g, tgt)
	for d := int64(0); d < 8; d++ {
		scheds = append(scheds, list.ShiftTime(d))
	}

	inline, err := EvalBatch(context.Background(), nil, NewEvalCache(), g, g.Fingerprint(), scheds, tgt)
	if err != nil {
		t.Fatal(err)
	}
	pool := workspan.NewPool(4, workspan.WorkStealing)
	defer pool.Close()
	fanned, err := EvalBatch(context.Background(), pool, NewEvalCache(), g, g.Fingerprint(), scheds, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, fanned) {
		t.Errorf("pooled batch differs from inline batch:\n%v\n%v", fanned, inline)
	}
}

func TestEvalBatchCancelledContext(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	costs, err := EvalBatch(ctx, nil, NewEvalCache(), g, g.Fingerprint(), batchSchedules(g, tgt), tgt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if costs != nil {
		t.Fatalf("cancelled batch returned costs: %v", costs)
	}
}

func TestBestCheckedEmpty(t *testing.T) {
	if c, ok := BestChecked(nil, MinTime); ok {
		t.Fatalf("BestChecked(nil) = %+v, true; want ok=false", c)
	}
}

func TestBestCheckedMatchesBest(t *testing.T) {
	g, dom := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	cands := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 4})
	for _, obj := range []Objective{MinTime, MinEnergy, MinEDP, MinFootprint} {
		got, ok := BestChecked(cands, obj)
		if !ok {
			t.Fatalf("BestChecked reported empty for %d candidates", len(cands))
		}
		// The winner is the first candidate attaining the minimum: none
		// beats it, and none before it ties it.
		reached := false
		for _, c := range cands {
			reached = reached || c.Name == got.Name
			if v := obj.Value(c.Cost); v < obj.Value(got.Cost) || (!reached && v == obj.Value(got.Cost)) {
				t.Errorf("%v: %q beats or precedes a tie with BestChecked's %q", obj, c.Name, got.Name)
			}
		}
	}
}

// TestAnnealContextDeadlineReturnsBestSoFar runs a search whose context
// is already expired: it must stop at the first barrier check and hand
// back a legal best-so-far mapping together with the context error.
func TestAnnealContextDeadlineReturnsBestSoFar(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched, cost, err := AnnealResumable(g, tgt, AnnealOptions{
		Iters: 500, Seed: 7, Chains: 2, Workers: 1, Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sched == nil {
		t.Fatal("cancelled anneal returned nil schedule")
	}
	if err := fm.Check(g, sched, tgt); err != nil {
		t.Fatalf("best-so-far schedule illegal: %v", err)
	}
	if cost.Cycles <= 0 {
		t.Fatalf("best-so-far cost not evaluated: %+v", cost)
	}
}

// TestAnnealSharedPoolDeterministic pins that running chains on a shared
// pool produces exactly the result of a private pool (and of the serial
// path): pool sharing changes scheduling, never answers.
func TestAnnealSharedPoolDeterministic(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	opts := AnnealOptions{Iters: 400, Seed: 3, Chains: 4, Workers: 1}
	wantSched, wantCost := mustAnneal(t, g, tgt, opts)

	pool := workspan.NewPool(4, workspan.WorkStealing)
	defer pool.Close()
	shared := opts
	shared.Pool = pool
	shared.Workers = 4
	gotSched, gotCost := mustAnneal(t, g, tgt, shared)
	if gotCost != wantCost || !reflect.DeepEqual(gotSched, wantSched) {
		t.Fatalf("shared-pool anneal diverged: cost %+v vs %+v", gotCost, wantCost)
	}
}

// TestExhaustive2DSharedPoolDeterministic does the same for the sweep.
func TestExhaustive2DSharedPoolDeterministic(t *testing.T) {
	g, dom := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	want := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 4, Workers: 1})

	pool := workspan.NewPool(4, workspan.WorkStealing)
	defer pool.Close()
	got := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 4, Pool: pool})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-pool sweep diverged: %d vs %d candidates", len(got), len(want))
	}
}

func TestEvalCacheLookup(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	cache := NewEvalCache()
	gfp := g.Fingerprint()
	sched := fm.ListSchedule(g, tgt)
	sfp := sched.Fingerprint()

	if _, ok := cache.Lookup(gfp, sfp, tgt); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	if st := cache.SnapshotStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("failed probe moved counters: %+v", st)
	}
	want := cache.Eval(g, gfp, sched, tgt)
	got, ok := cache.Lookup(gfp, sfp, tgt)
	if !ok || got != want {
		t.Fatalf("Lookup after Eval = (%+v, %v), want (%+v, true)", got, ok, want)
	}
	if st := cache.SnapshotStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after eval+probe: %+v, want 1 hit / 1 miss", st)
	}
}
