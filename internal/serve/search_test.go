package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

const searchBody = `{
	"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]},
	"target": {"width": 4},
	"kind": "anneal",
	"iters": 200,
	"chains": 2,
	"seed": 7
}`

func TestSearchAnneal(t *testing.T) {
	s := newTestServer(t, nil)
	var resp SearchResponse
	code, rec := post(t, s, "POST", "/v1/search", searchBody, &resp)
	if code != 200 {
		t.Fatalf("search: %d %s", code, rec.Body.String())
	}
	if resp.Partial || resp.Degraded {
		t.Fatalf("uncontended search must be complete: %+v", resp)
	}
	if resp.DoneIters != 200 || resp.TotalIters != 200 {
		t.Fatalf("iters: %+v", resp)
	}
	if resp.Best.Objective <= 0 || resp.Best.Cost.Cycles <= 0 {
		t.Fatalf("degenerate best: %+v", resp.Best)
	}

	// Same request, same answer: the search is a deterministic function
	// of the request.
	var again SearchResponse
	if code, _ := post(t, s, "POST", "/v1/search", searchBody, &again); code != 200 {
		t.Fatalf("repeat search failed")
	}
	if again.Best != resp.Best {
		t.Fatalf("same request, different best: %+v vs %+v", again.Best, resp.Best)
	}
}

func TestSearchExhaustive(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{
		"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]},
		"target": {"width": 4},
		"kind": "exhaustive",
		"max_tau": 16
	}`
	var resp SearchResponse
	code, rec := post(t, s, "POST", "/v1/search", body, &resp)
	if code != 200 {
		t.Fatalf("exhaustive: %d %s", code, rec.Body.String())
	}
	if resp.DoneIters == 0 || resp.Best.Cost.Cycles <= 0 {
		t.Fatalf("sweep found nothing: %+v", resp)
	}
}

func TestSearchValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad kind", `{"recurrence": {"dims": [4, 4], "deps": []}, "target": {"width": 2}, "kind": "lucky"}`, 422},
		{"bad objective", `{"recurrence": {"dims": [4, 4], "deps": []}, "target": {"width": 2}, "objective": "vibes"}`, 422},
		{"negative iters", `{"recurrence": {"dims": [4, 4], "deps": []}, "target": {"width": 2}, "iters": -1}`, 422},
		{"negative chains", `{"recurrence": {"dims": [4, 4], "deps": []}, "target": {"width": 2}, "chains": -1}`, 422},
		{"iters over cap", fmt.Sprintf(`{"recurrence": {"dims": [4, 4], "deps": []}, "target": {"width": 2}, "iters": %d}`, maxSearchIters+1), 422},
		{"chains over cap", fmt.Sprintf(`{"recurrence": {"dims": [4, 4], "deps": []}, "target": {"width": 2}, "chains": %d}`, maxSearchChains+1), 422},
		{"exhaustive on 1-D", `{"recurrence": {"dims": [8], "deps": [[1]]}, "target": {"width": 2}, "kind": "exhaustive"}`, 422},
		{"negative p", `{"recurrence": {"dims": [4, 4], "deps": [[1, 0]]}, "target": {"width": 2}, "kind": "exhaustive", "p": -1}`, 422},
		{"p over grid width", `{"recurrence": {"dims": [4, 4], "deps": [[1, 0]]}, "target": {"width": 2}, "kind": "exhaustive", "p": 3}`, 422},
		{"negative max_tau", `{"recurrence": {"dims": [4, 4], "deps": [[1, 0]]}, "target": {"width": 2}, "kind": "exhaustive", "max_tau": -1}`, 422},
		{"max_tau over cap", fmt.Sprintf(`{"recurrence": {"dims": [4, 4], "deps": [[1, 0]]}, "target": {"width": 2}, "kind": "exhaustive", "max_tau": %d}`, maxSweepTau+1), 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, rec := post(t, s, "POST", "/v1/search", tc.body, nil)
			if code != tc.want {
				t.Fatalf("want %d, got %d: %s", tc.want, code, rec.Body.String())
			}
		})
	}
}

// TestSearchDegradedUnderShed: shed mode never starts a search; it
// replays a stored result (degraded) when one exists and refuses with
// 429 when none does.
func TestSearchDegradedUnderShed(t *testing.T) {
	s := newTestServer(t, nil)
	var full SearchResponse
	if code, _ := post(t, s, "POST", "/v1/search", searchBody, &full); code != 200 {
		t.Fatalf("priming search failed")
	}
	s.SetMode(ModeShed)

	var degraded SearchResponse
	if code, _ := post(t, s, "POST", "/v1/search", searchBody, &degraded); code != 200 {
		t.Fatalf("shed-mode replay failed")
	}
	if !degraded.Degraded || degraded.Best != full.Best {
		t.Fatalf("shed replay: %+v, primed %+v", degraded, full)
	}

	unseen := `{
		"recurrence": {"dims": [4, 4], "deps": [[1, 0]]},
		"target": {"width": 2},
		"iters": 100
	}`
	code, rec := post(t, s, "POST", "/v1/search", unseen, nil)
	if code != 429 {
		t.Fatalf("unseen search in shed mode: want 429, got %d", code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
}

// TestSearchPartialOnDeadline: a search whose context is already dead
// returns its best-so-far state marked partial — the degradation
// contract for deadline-bounded searches.
func TestSearchPartialOnDeadline(t *testing.T) {
	s := newTestServer(t, nil)
	g, dom, err := (&RecurrenceSpec{Dims: []int{5, 5}, Deps: [][]int{{1, 0}, {0, 1}}}).materialize()
	if err != nil {
		t.Fatal(err)
	}
	_ = dom
	tgt, err := (&TargetSpec{Width: 4}).target()
	if err != nil {
		t.Fatal(err)
	}
	req := &SearchRequest{Kind: "anneal", Iters: 5000, Chains: 2, Seed: 3}
	gfp := g.Fingerprint()
	key := searchKey(gfp, tgt, req)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already spent
	resp, err := s.runAnneal(ctx, g, gfp, tgt, req, key)
	if err != nil {
		t.Fatalf("runAnneal with dead context must degrade, not fail: %v", err)
	}
	if !resp.Partial {
		t.Fatalf("dead-context search not marked partial: %+v", resp)
	}
	if resp.DoneIters >= resp.TotalIters {
		t.Fatalf("partial search claims completion: %+v", resp)
	}
	if resp.Best.Cost.Cycles <= 0 {
		t.Fatalf("partial search must still carry a best-so-far mapping: %+v", resp)
	}

	// The partial result is stored, so an overloaded replay can serve it.
	stored, ok := s.searches.lookup(key)
	if !ok || stored.Best != resp.Best {
		t.Fatalf("partial result not stored for degraded replay")
	}
}

// TestSearchExhaustivePartialOnDeadline: a sweep whose context is
// already dead skips every tuple, still answers (the serial candidate
// is always priced), and is marked partial — the exhaustive analogue of
// the annealer's deadline degradation.
func TestSearchExhaustivePartialOnDeadline(t *testing.T) {
	s := newTestServer(t, nil)
	g, dom, err := (&RecurrenceSpec{Dims: []int{5, 5}, Deps: [][]int{{1, 0}, {0, 1}}}).materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := (&TargetSpec{Width: 4}).target()
	if err != nil {
		t.Fatal(err)
	}
	req := &SearchRequest{Kind: "exhaustive", MaxTau: 16}
	gfp := g.Fingerprint()
	key := searchKey(gfp, tgt, req)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already spent
	resp, err := s.runExhaustive(ctx, g, dom, gfp, tgt, req, key)
	if err != nil {
		t.Fatalf("runExhaustive with dead context must degrade, not fail: %v", err)
	}
	if !resp.Partial {
		t.Fatalf("dead-context sweep not marked partial: %+v", resp)
	}
	if resp.Best.Cost.Cycles <= 0 {
		t.Fatalf("partial sweep must still carry a best-so-far mapping: %+v", resp)
	}

	// A later uncut run of the same request completes and overwrites the
	// stored partial (never the other way around).
	full, err := s.runExhaustive(context.Background(), g, dom, gfp, tgt, req, key)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatalf("uncut sweep marked partial: %+v", full)
	}
	if full.DoneIters <= resp.DoneIters {
		t.Fatalf("full sweep priced %d candidates, partial %d — expected strictly more", full.DoneIters, resp.DoneIters)
	}
	stored, ok := s.searches.lookup(key)
	if !ok || stored.Partial {
		t.Fatalf("complete result must replace the stored partial: %+v (ok=%v)", stored, ok)
	}
}

// TestSearchCheckpointResume: with a checkpoint directory configured, a
// deadline-cut search leaves a checkpoint that an identical later
// request resumes from — DoneIters ratchets forward instead of
// restarting at zero, and the finished result matches an uninterrupted
// run of the same request.
func TestSearchCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.CheckpointDir = dir })

	body := `{
		"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]},
		"target": {"width": 4},
		"iters": 1000,
		"chains": 2,
		"seed": 9
	}`
	// Run the search to completion once; this also writes its checkpoint.
	var full SearchResponse
	if code, rec := post(t, s, "POST", "/v1/search", body, &full); code != 200 {
		t.Fatalf("search: %d %s", code, rec.Body.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "anneal-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one checkpoint file, got %v (%v)", files, err)
	}

	// An identical request on a FRESH server with the same checkpoint
	// directory resumes from the finished checkpoint and reproduces the
	// answer bit-for-bit.
	s2 := newTestServer(t, func(c *Config) { c.CheckpointDir = dir })
	var resumed SearchResponse
	if code, rec := post(t, s2, "POST", "/v1/search", body, &resumed); code != 200 {
		t.Fatalf("resumed search: %d %s", code, rec.Body.String())
	}
	if resumed.Best != full.Best {
		t.Fatalf("resume changed the answer: %+v vs %+v", resumed.Best, full.Best)
	}
}
