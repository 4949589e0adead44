package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/serve"
)

// oracle checks answers against reference costs it computes itself with
// fm.Evaluate, legality check on, outside the timed phases.
type oracle struct {
	in   *inputs
	refs map[int]fm.Cost
	// searchBodies holds the first answer to each search; every repeat
	// must match it byte for byte.
	searchBodies map[int][]byte
}

func newOracle(in *inputs) *oracle {
	return &oracle{in: in, refs: make(map[int]fm.Cost), searchBodies: make(map[int][]byte)}
}

// price computes the reference cost of every mapping the results name
// that has none yet, on workers goroutines.
func (o *oracle) price(results []result, workers int) error {
	var missing []int
	seen := make(map[int]bool)
	for i := range results {
		for _, mi := range results[i].req.maps {
			if _, ok := o.refs[mi]; !ok && !seen[mi] {
				seen[mi] = true
				missing = append(missing, mi)
			}
		}
	}
	costs := make([]fm.Cost, len(missing))
	errs := make([]error, len(missing))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(missing); i += workers {
				m := o.in.maps[missing[i]]
				r := &o.in.recs[m.rec]
				sched, err := buildSchedule(r, m.spec, o.in.tgt)
				if err == nil {
					costs[i], err = fm.Evaluate(r.g, sched, o.in.tgt, fm.EvalOptions{})
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, mi := range missing {
		if errs[i] != nil {
			return fmt.Errorf("reference for %s mapping %+v: %w", o.in.recs[o.in.maps[mi].rec].spec.Name, o.in.maps[mi].spec, errs[i])
		}
		o.refs[mi] = costs[i]
	}
	return nil
}

// check returns why one answer is wrong, or nil. Evals must match the
// reference costs exactly; searches must be complete, self-consistent
// and identical on every repeat.
func (o *oracle) check(res *result) error {
	if res.err != nil {
		return res.err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.status, bytes.TrimSpace(res.body))
	}
	if res.req.path == pathSearch {
		return o.checkSearch(res)
	}
	var resp serve.EvalResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		return fmt.Errorf("decode eval answer: %w", err)
	}
	r := &o.in.recs[res.req.rec]
	switch {
	case resp.Degraded:
		return fmt.Errorf("degraded eval answer")
	case resp.GraphFP != fmt.Sprintf("%x", r.gfp):
		return fmt.Errorf("graph_fp %s, want %x", resp.GraphFP, r.gfp)
	case len(resp.Costs) != len(res.req.maps):
		return fmt.Errorf("%d costs for %d schedules", len(resp.Costs), len(res.req.maps))
	}
	for i, mi := range res.req.maps {
		ref, ok := o.refs[mi]
		if !ok {
			return fmt.Errorf("no reference for mapping %d", mi)
		}
		if resp.Costs[i] != ref {
			return fmt.Errorf("%s %+v: cost %+v, want %+v", r.spec.Name, o.in.maps[mi].spec, resp.Costs[i], ref)
		}
	}
	return nil
}

func (o *oracle) checkSearch(res *result) error {
	var resp serve.SearchResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		return fmt.Errorf("decode search answer: %w", err)
	}
	switch {
	case resp.Partial || resp.Degraded:
		return fmt.Errorf("search answer partial=%v degraded=%v", resp.Partial, resp.Degraded)
	case resp.DoneIters != resp.TotalIters:
		return fmt.Errorf("search ran %d of %d iterations", resp.DoneIters, resp.TotalIters)
	case resp.Best.Objective != search.MinTime.Value(resp.Best.Cost):
		return fmt.Errorf("search objective %v disagrees with its cost %+v", resp.Best.Objective, resp.Best.Cost)
	}
	first, ok := o.searchBodies[res.req.search]
	if !ok {
		o.searchBodies[res.req.search] = res.body
		return nil
	}
	if !bytes.Equal(first, res.body) {
		return fmt.Errorf("search %d answered differently on a repeat:\n%s\n%s", res.req.search, first, res.body)
	}
	return nil
}

// verdicts checks every result, returning per-result correctness and the
// first few failure descriptions.
func (o *oracle) verdicts(results []result, workers int) ([]bool, []string, error) {
	if err := o.price(results, workers); err != nil {
		return nil, nil, err
	}
	ok := make([]bool, len(results))
	var notes []string
	for i := range results {
		err := o.check(&results[i])
		ok[i] = err == nil
		if err != nil && len(notes) < 5 {
			notes = append(notes, fmt.Sprintf("%s: %v", results[i].req.path, err))
		}
	}
	return ok, notes, nil
}
