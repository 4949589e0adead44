package search

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/tech"
)

func annealFixture(t *testing.T) (*fm.Graph, fm.Target) {
	t.Helper()
	g, _, err := fm.Recurrence{
		Name: "dp",
		Dims: []int{6, 6},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	return g, tgt
}

// TestCheckpointedRunMatchesPlainRun: writing checkpoints must not
// change the search result, and a run resumed from its own *final*
// checkpoint must return immediately with the same answer.
func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	g, tgt := annealFixture(t)
	opts := AnnealOptions{Iters: 400, Seed: 11, Chains: 3, ExchangeEvery: 100, Workers: 1}

	plainSched, plainCost := mustAnneal(t, g, tgt, opts)

	cpPath := filepath.Join(t.TempDir(), "anneal.ckpt")
	opts.CheckpointPath = cpPath
	ckptSched, ckptCost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainSched, ckptSched) || plainCost != ckptCost {
		t.Fatal("checkpointing changed the search result")
	}

	opts.Resume = true
	resSched, resCost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainSched, resSched) || plainCost != resCost {
		t.Fatal("resume from the final checkpoint diverged")
	}
}

// TestResumeFromMidRunBarrier is the crash-recovery contract: a search
// killed after any barrier and restarted with -resume must produce the
// same final mapping as the uninterrupted run. The mid-run snapshot is
// captured via the barrier hook (a copy of the checkpoint file as it
// existed right after the first barrier), exactly what a kill -9 between
// barriers would leave on disk.
func TestResumeFromMidRunBarrier(t *testing.T) {
	g, tgt := annealFixture(t)
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "anneal.ckpt")
	midPath := filepath.Join(dir, "mid.ckpt")

	opts := AnnealOptions{Iters: 400, Seed: 7, Chains: 3, ExchangeEvery: 100, Workers: 2,
		CheckpointPath: cpPath}

	captured := false
	testBarrierHook = func(done int) {
		if !captured && done < opts.Iters {
			data, err := os.ReadFile(cpPath)
			if err != nil {
				t.Errorf("barrier hook: %v", err)
				return
			}
			if err := os.WriteFile(midPath, data, 0o644); err != nil {
				t.Errorf("barrier hook: %v", err)
				return
			}
			captured = true
		}
	}
	defer func() { testBarrierHook = nil }()

	fullSched, fullCost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	testBarrierHook = nil
	if !captured {
		t.Fatal("no mid-run barrier checkpoint was captured")
	}

	mid, err := LoadCheckpoint(midPath)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Done <= 0 || mid.Done >= opts.Iters {
		t.Fatalf("captured checkpoint at done=%d, want strictly mid-run of %d", mid.Done, opts.Iters)
	}

	opts.CheckpointPath = midPath
	opts.Resume = true
	resSched, resCost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullSched, resSched) || fullCost != resCost {
		t.Fatalf("resumed run diverged: cost %+v vs %+v", resCost, fullCost)
	}
}

// TestSingleChainCheckpoints: with one chain there are no exchanges, but
// checkpoints must still land every ExchangeEvery iterations.
func TestSingleChainCheckpoints(t *testing.T) {
	g, tgt := annealFixture(t)
	cpPath := filepath.Join(t.TempDir(), "anneal.ckpt")
	opts := AnnealOptions{Iters: 300, Seed: 3, Chains: 1, ExchangeEvery: 100, Workers: 1,
		CheckpointPath: cpPath}

	barriers := 0
	testBarrierHook = func(int) { barriers++ }
	defer func() { testBarrierHook = nil }()

	ckptSched, ckptCost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if barriers != 3 {
		t.Fatalf("1-chain run hit %d barriers, want 3", barriers)
	}
	opts.CheckpointPath = ""
	plainSched, plainCost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainSched, ckptSched) || plainCost != ckptCost {
		t.Fatal("1-chain checkpointing changed the result")
	}
}

func TestResumeValidation(t *testing.T) {
	g, tgt := annealFixture(t)
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "anneal.ckpt")
	opts := AnnealOptions{Iters: 200, Seed: 5, Chains: 2, ExchangeEvery: 100, Workers: 1,
		CheckpointPath: cpPath}
	if _, _, err := AnnealResumable(g, tgt, opts); err != nil {
		t.Fatal(err)
	}

	// Missing file.
	bad := opts
	bad.CheckpointPath = filepath.Join(dir, "nope.ckpt")
	bad.Resume = true
	if _, _, err := AnnealResumable(g, tgt, bad); err == nil {
		t.Error("resume from a missing checkpoint succeeded")
	}

	// Resume without a path.
	bad = opts
	bad.CheckpointPath = ""
	bad.Resume = true
	if _, _, err := AnnealResumable(g, tgt, bad); err == nil {
		t.Error("Resume without CheckpointPath succeeded")
	}

	// Mismatched options.
	for name, mutate := range map[string]func(*AnnealOptions){
		"seed":     func(o *AnnealOptions) { o.Seed++ },
		"iters":    func(o *AnnealOptions) { o.Iters *= 2 },
		"chains":   func(o *AnnealOptions) { o.Chains++ },
		"exchange": func(o *AnnealOptions) { o.ExchangeEvery = 50 },
	} {
		mismatched := opts
		mismatched.Resume = true
		mutate(&mismatched)
		if _, _, err := AnnealResumable(g, tgt, mismatched); err == nil {
			t.Errorf("resume with mismatched %s succeeded", name)
		}
	}

	// Mismatched target.
	tgt2 := tgt
	tgt2.Grid.PitchMM = 3
	mismatched := opts
	mismatched.Resume = true
	if _, _, err := AnnealResumable(g, tgt2, mismatched); err == nil {
		t.Error("resume with a different target succeeded")
	}

	// Torn file.
	if err := os.WriteFile(cpPath, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	mismatched = opts
	mismatched.Resume = true
	if _, _, err := AnnealResumable(g, tgt, mismatched); err == nil {
		t.Error("resume from a torn checkpoint succeeded")
	}
}

func TestSaveCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	cp := &Checkpoint{Version: checkpointVersion, Done: 42}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new content; no temp droppings may remain.
	cp.Done = 99
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != 99 {
		t.Fatalf("loaded Done=%d, want 99", got.Done)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want 1 (no temp files)", len(entries))
	}
}
