package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/fm"
)

// materialize builds the graph and domain a wire spec names, as
// resolveGraph does on a registry miss.
func (rs *RecurrenceSpec) materialize() (*fm.Graph, *fm.Domain, error) {
	r, _, err := rs.fingerprint()
	if err != nil {
		return nil, nil, err
	}
	return r.Materialize()
}

// fuzzBodies seed the body fuzz targets: servable evals, searches,
// slacks and exchanges, plus one rejection of each kind the decoders
// know.
var fuzzBodies = []string{
	evalBody,
	searchBody,
	// A search and a slack request: the router keys them the same way.
	`{"recurrence": {"dims": [8, 8], "deps": [[1, 0], [0, 1], [1, 1]], "op": "cmp", "bits": 16},
	  "target": {"width": 4}, "kind": "anneal", "iters": 200, "chains": 2, "seed": 3}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, -1], [0, 1]]},
	  "target": {"width": 2, "height": 2}, "schedule": {"kind": "list"}}`,
	`{"recurrence": {"name": "cube", "dims": [3, 4, 5], "deps": [[1, 0, 0], [0, 0, 1], [0, 0, 1]], "op": "fma"},
	  "target": {"width": 4, "pitch_mm": 0.5, "mem_words_per_node": 64}, "schedules": [{"kind": "serial"}]}`,
	`{"graph_fp": "1f2e3d4c5b6a7988", "target": {"width": 4}, "schedules": [{"kind": "serial"}]}`,
	`{` + exchangeSearch + `, "shard": 1, "round": 0, "rounds": 3}`,
	// Rejections: bad extent, lex-negative offset, bad target, no graph.
	`{"recurrence": {"dims": [0, 4], "deps": []}, "target": {"width": 4}}`,
	`{"recurrence": {"dims": [4, 4], "deps": [[0, -1]]}, "target": {"width": 4}}`,
	`{"recurrence": {"dims": [4], "deps": [[1]]}, "target": {"width": 0}}`,
	`{"target": {"width": 4}}`,
	`{"recurrence": null, "graph_fp": "zz"}`,
	// 2^32 x 2^32 wraps to 0 nodes when multiplied unchecked.
	`{"recurrence": {"dims": [4, 4], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4294967296, "height": 4294967296}, "schedules": [{"kind": "list"}]}`,
}

// FuzzRouteKey feeds arbitrary bodies to the router's decoder. It must
// never panic, every target it accepts must have 1..maxGridNodes grid
// nodes, and whenever the body's inline recurrence materializes on a
// valid target, the key must be the materialized graph's fingerprint:
// the graph_fp a shard registers the graph under, so a router that
// skips the build still picks the shard that knows it.
func FuzzRouteKey(f *testing.F) {
	for _, body := range fuzzBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key, err := RouteKey(body)
		var p routeProbe
		if json.Unmarshal(body, &p) != nil {
			return
		}
		tgt, terr := p.Target.target()
		if n := tgt.Grid.Nodes(); terr == nil && (n < 1 || n > maxGridNodes) {
			t.Fatalf("target %+v accepted with %d grid nodes, want 1..%d", p.Target, n, maxGridNodes)
		}
		if p.Recurrence == nil {
			return
		}
		g, _, merr := p.Recurrence.materialize()
		if terr != nil || merr != nil {
			return
		}
		if err != nil {
			t.Fatalf("RouteKey refused a servable body: %v", err)
		}
		if want := g.Fingerprint(); key != want {
			t.Fatalf("RouteKey = %016x, materialized graph routes to %016x", key, want)
		}
	})
}

// FuzzRoutes sends arbitrary bodies to every mapd route that reads one,
// all on one in-process server and each under a 300 ms deadline. Every
// answer must be a served result or a client error: a panic fails the
// run, and so does any 5xx but a deadline's 504 or a cancellation's
// 503. TestMain's leak check covers the goroutines the inputs start.
func FuzzRoutes(f *testing.F) {
	routes := []struct{ method, path string }{
		{"POST", "/v1/eval"},
		{"POST", "/v1/search"},
		{"POST", "/v1/exchange"},
		{"GET", "/v1/slack"},
	}
	for i := range routes {
		for _, body := range fuzzBodies {
			f.Add(uint8(i), []byte(body))
		}
	}
	s, err := NewServer(Config{PoolWorkers: 2, QueueDepth: 8, EvalWorkers: 1, BatchMax: 8, MaxSearches: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		rt := routes[int(route)%len(routes)]
		req := httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body))
		req.Header.Set("X-Deadline-Ms", "300")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if c := rec.Code; c >= 500 && c != http.StatusServiceUnavailable && c != http.StatusGatewayTimeout {
			t.Fatalf("%s %s answered %d: %s", rt.method, rt.path, c, rec.Body.String())
		}
	})
}

// TestOversizedTargetRejected pins the target decoder's size cap on
// every route that takes a target. Each side is bounded before the
// multiply, so a grid whose node count wraps to 0 is refused with a 422
// instead of reaching a schedule builder, and RouteKey refuses it too,
// so a router turns it away without a shard round trip.
func TestOversizedTargetRejected(t *testing.T) {
	s := newTestServer(t, nil)
	const rec = `"recurrence": {"dims": [4, 4], "deps": [[1, 0], [0, 1]]}`
	for _, tgt := range []string{
		`{"width": 4294967296, "height": 4294967296}`,
		`{"width": 4611686018427387904, "height": 4}`,
		`{"width": 4097}`,
		`{"width": 1, "height": 4097}`,
		`{"width": 128, "height": 64}`,
	} {
		for _, tc := range []struct{ method, path, body string }{
			{"POST", "/v1/eval", `{` + rec + `, "target": ` + tgt + `, "schedules": [{"kind": "list"}, {"kind": "antidiagonal"}]}`},
			{"POST", "/v1/search", `{` + rec + `, "target": ` + tgt + `, "iters": 10}`},
			{"GET", "/v1/slack", `{` + rec + `, "target": ` + tgt + `, "schedule": {"kind": "list"}}`},
		} {
			t.Run(tc.path+" "+tgt, func(t *testing.T) {
				if code, resp := post(t, s, tc.method, tc.path, tc.body, nil); code != 422 {
					t.Fatalf("want 422, got %d: %s", code, resp.Body.String())
				}
				if key, err := RouteKey([]byte(tc.body)); err == nil {
					t.Fatalf("RouteKey accepted the target and routed it to %016x", key)
				}
			})
		}
	}
}
