package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fm"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tech"
)

// fleetShard is one real mapd in-process: a serve.Server over a store
// in its own temp dir, behind an httptest.Server whose handler can be
// swapped. Kill and restart keep the address, so a router sees a shard
// die and come back the way it would see a process SIGKILLed and
// restarted over its store directory.
type fleetShard struct {
	t   testing.TB
	url string
	dir string

	handler atomic.Pointer[http.Handler]
	srv     *serve.Server // nil while dead
	st      *store.Store
}

// newFleetShard starts one live shard; the test's cleanup stops it.
func newFleetShard(t testing.TB) *fleetShard {
	t.Helper()
	sh := &fleetShard{t: t, dir: t.TempDir()}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*sh.handler.Load()).ServeHTTP(w, r)
	}))
	sh.url = hs.URL
	sh.start()
	t.Cleanup(func() {
		hs.Close()
		sh.stop()
	})
	return sh
}

// newFleet starts n live shards and returns them with their URLs.
func newFleet(t testing.TB, n int) ([]*fleetShard, []string) {
	t.Helper()
	shards := make([]*fleetShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newFleetShard(t)
		urls[i] = shards[i].url
	}
	return shards, urls
}

// start opens the store in the shard's directory and swaps a fresh
// server over it in.
func (sh *fleetShard) start() {
	sh.t.Helper()
	reg := obs.New()
	st, err := store.Open(store.OS{}, sh.dir, store.Options{Obs: reg})
	if err != nil {
		sh.t.Fatalf("store open: %v", err)
	}
	srv, err := serve.NewServer(serve.Config{
		PoolWorkers: 2,
		QueueDepth:  8,
		EvalWorkers: 1,
		BatchMax:    8,
		MaxSearches: 2,
		Store:       st,
		Clock:       clock.NewFake(time.Unix(1000, 0)),
		Obs:         reg,
	})
	if err != nil {
		sh.t.Fatalf("NewServer: %v", err)
	}
	sh.srv, sh.st = srv, st
	h := srv.Handler()
	sh.handler.Store(&h)
}

// stop closes the server and its store if the shard is alive.
func (sh *fleetShard) stop() {
	if sh.srv == nil {
		return
	}
	sh.srv.Close()
	if err := sh.st.Close(); err != nil {
		sh.t.Errorf("store close: %v", err)
	}
	sh.srv, sh.st = nil, nil
}

// kill makes the shard unreachable: every connection is hung up on
// without an answer, which a router sees as a transport error. The
// server and store then close with no work in flight (kills land at
// request boundaries; torn writes are storedrill's and the store's
// crash tests' business).
func (sh *fleetShard) kill() {
	var dead http.Handler = http.HandlerFunc(hangUp)
	sh.handler.Store(&dead)
	sh.stop()
}

// restart reopens the store from the same directory, swaps a fresh
// server in, and has rt probe so it routes to the shard again.
func (sh *fleetShard) restart(rt *Router) {
	sh.t.Helper()
	sh.start()
	if rec := do(rt, "POST", "/v1/probe", ""); rec.Code != http.StatusOK {
		sh.t.Fatalf("probe after restart: %d", rec.Code)
	}
}

// serve runs one request through the shard in-process.
func (sh *fleetShard) serve(req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	(*sh.handler.Load()).ServeHTTP(rec, req)
	return rec
}

// metrics is the shard's current /v1/metrics snapshot.
func (sh *fleetShard) metrics() obs.Snapshot {
	sh.t.Helper()
	rec := sh.serve(httptest.NewRequest("GET", "/v1/metrics", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		sh.t.Fatalf("decode shard metrics: %v", err)
	}
	return snap
}

func hangUp(w http.ResponseWriter, _ *http.Request) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
}

// streamReq is one request of the differential stream; kind keys the
// expected-difference table.
type streamReq struct {
	kind, method, path, body string
}

func (q streamReq) request() *http.Request {
	return httptest.NewRequest(q.method, q.path, strings.NewReader(q.body))
}

// Request kinds of the differential stream.
const (
	kindEval       = "inline eval"
	kindMalformed  = "malformed request"
	kindGraphFP    = "graph_fp eval"
	kindSlack      = "slack"
	kindAnneal     = "anneal search"
	kindExhaustive = "exhaustive search"
)

// expectedDiffs lists the request kinds whose fleet answer may differ
// from a single mapd's, each with the one way it may differ. It may only
// shrink: a listed kind that no longer differs anywhere in the matrix
// fails the test.
var expectedDiffs = map[string]func(fleet, single answer) bool{
	// The router's scatter-gather restarts annealing every round with its
	// own seed strides, so even one shard does not reproduce the
	// in-process search (ROADMAP item 4). The status still matches.
	kindAnneal: func(fleet, single answer) bool { return fleet.status == single.status },
	// A shard registers only the graphs routed to it, and a restarted
	// shard none, so a fingerprint a single mapd knows can be unknown on
	// the shard that owns the (graph, target) key.
	kindGraphFP: func(fleet, single answer) bool {
		return fleet.status == http.StatusNotFound && single.status == http.StatusOK
	},
}

var streamDeps = []string{`[[1, 0], [0, 1]]`, `[[1, 0], [0, 1], [1, 1]]`}

func recurrenceJSON(dims [2]int, deps string) string {
	return fmt.Sprintf(`{"dims": [%d, %d], "deps": %s}`, dims[0], dims[1], deps)
}

// graphFP is the graph fingerprint mapd reports for an inline
// recurrence of dims over deps (serve's defaults: op add, 32 bits).
func graphFP(t testing.TB, dims [2]int, deps string) uint64 {
	t.Helper()
	var offsets [][]int
	if err := json.Unmarshal([]byte(deps), &offsets); err != nil {
		t.Fatal(err)
	}
	gfp, err := fm.Recurrence{Name: "recurrence", Dims: dims[:], Deps: offsets, Op: tech.OpAdd, Bits: 32}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return gfp
}

// malformedSearches are the search bodies mapd refuses, one per way a
// search can be refused before it runs. diffStream spreads all of them
// over the stream, so every fleet phase relays some.
var malformedSearches = []string{
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "iters": -1}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "iters": 1048577}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "chains": 100000}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "objective": "speed"}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "kind": "tabu"}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "colour": 1}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 0}}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}} {}`,
	`{"graph_fp": "zz", "target": {"width": 4}}`,
}

// diffStream builds the seeded sequential request stream: inline evals
// of every schedule kind, malformed evals, graph_fp evals of graphs the
// stream already sent inline, slack requests, anneal and exhaustive
// searches, and every body of malformedSearches at evenly spaced rows.
// Its first row sends one graph inline under width 4 only; its last row
// asks for that graph by fingerprint under a target whose key another
// shard owns in the 2- and 3-shard rings, so a healthy fleet answers
// that row 404 by construction.
func diffStream(t testing.TB, seed int64, n int) []streamReq {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lone, loneDeps := [2]int{9, 3}, streamDeps[0]
	loneFP := graphFP(t, lone, loneDeps)
	out := []streamReq{{kindEval, "POST", "/v1/eval", fmt.Sprintf(
		`{"recurrence": %s, "target": {"width": 4}, "schedules": [{"kind": "serial"}]}`,
		recurrenceJSON(lone, loneDeps))}}
	type graph struct {
		dims [2]int
		deps string
	}
	var seen []graph
	targets := []string{`{"width": 4}`, `{"width": 2, "height": 2}`, `{"width": 8}`}
	schedule := func() string {
		kinds := []string{
			`{"kind": "serial"}`,
			`{"kind": "list"}`,
			`{"kind": "antidiagonal"}`,
			fmt.Sprintf(`{"kind": "antidiagonal", "stride": %d}`, 20+rng.Intn(4)),
			fmt.Sprintf(`{"kind": "affine", "a1": 1, "a2": %d, "t1": %d, "t2": 1}`, rng.Intn(2), 1+rng.Intn(3)),
		}
		return kinds[rng.Intn(len(kinds))]
	}
	malformed := []string{
		`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "schedules": [{"kind": "spiral"}]}`,
		`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "schedules": [{"kind": "affine", "a1": 1}]}`,
		`{"recurrence": {"dims": [3, 3, 3], "deps": [[1, 0, 0]]}, "target": {"width": 4}, "schedules": [{"kind": "antidiagonal"}]}`,
		`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "schedules": []}`,
		`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "schedules": [{"kind": "serial"}], "colour": 1}`,
		`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 0}, "schedules": [{"kind": "serial"}]}`,
		`{"recurrence": {"dims": [4, 4], "deps": [[0, -1]]}, "target": {"width": 4}, "schedules": [{"kind": "serial"}]}`,
		`{"graph_fp": "zz", "target": {"width": 4}, "schedules": [{"kind": "serial"}]}`,
		`{"target": {"width": 4}, "schedules": [{"kind": "serial"}]}`,
		`{"recurrence": {"dims": [5, 5]`,
	}
	bad := 0 // malformedSearches sent so far
	for len(out) < n-1 {
		if bad < len(malformedSearches) && len(out) >= (bad+1)*(n-1)/(len(malformedSearches)+1) {
			out = append(out, streamReq{kindMalformed, "POST", "/v1/search", malformedSearches[bad]})
			bad++
			continue
		}
		g := graph{[2]int{4 + rng.Intn(4), 4 + rng.Intn(4)}, streamDeps[rng.Intn(len(streamDeps))]}
		rec, tgt := recurrenceJSON(g.dims, g.deps), targets[rng.Intn(len(targets))]
		switch draw := rng.Intn(100); {
		case draw < 55:
			scheds := []string{schedule()}
			for rng.Intn(3) == 0 {
				scheds = append(scheds, schedule())
			}
			out = append(out, streamReq{kindEval, "POST", "/v1/eval", fmt.Sprintf(
				`{"recurrence": %s, "target": %s, "schedules": [%s]}`, rec, tgt, strings.Join(scheds, ", "))})
			seen = append(seen, g)
		case draw < 75 && len(seen) > 0:
			old := seen[rng.Intn(len(seen))]
			out = append(out, streamReq{kindGraphFP, "POST", "/v1/eval", fmt.Sprintf(
				`{"graph_fp": "%x", "target": %s, "schedules": [%s]}`, graphFP(t, old.dims, old.deps), tgt, schedule())})
		case draw < 83:
			out = append(out, streamReq{kindMalformed, "POST", "/v1/eval", malformed[rng.Intn(len(malformed))]})
		case draw < 93:
			out = append(out, streamReq{kindSlack, "GET", "/v1/slack", fmt.Sprintf(
				`{"recurrence": %s, "target": %s, "schedule": %s}`, rec, tgt, schedule())})
		case draw < 96:
			out = append(out, streamReq{kindAnneal, "POST", "/v1/search", fmt.Sprintf(
				`{"recurrence": %s, "target": %s, "iters": 150, "chains": 2, "seed": %d}`, rec, tgt, 1+rng.Intn(3))})
		default:
			out = append(out, streamReq{kindExhaustive, "POST", "/v1/search", fmt.Sprintf(
				`{"recurrence": %s, "target": {"width": 4}, "kind": "exhaustive"}`, rec)})
		}
	}
	// The lone graph, asked for under a target whose key the width-4
	// key's primary does not own in either multi-shard ring.
	primary := func(shards, width int) int {
		return NewRing(shards).Owners(fm.FingerprintFP(loneFP, fm.DefaultTarget(width, 1)), 1)[0]
	}
	w := 2
	for primary(2, w) == primary(2, 4) || primary(3, w) == primary(3, 4) {
		w++
	}
	return append(out, streamReq{kindGraphFP, "POST", "/v1/eval", fmt.Sprintf(
		`{"graph_fp": "%x", "target": {"width": %d}, "schedules": [{"kind": "list"}]}`, loneFP, w)})
}

// answer is one response as the differential test compares it.
type answer struct {
	status int
	header http.Header // without X-Cluster-* attribution
	body   string
}

func answerOf(rec *httptest.ResponseRecorder) answer {
	h := rec.Result().Header.Clone()
	for k := range h {
		if strings.HasPrefix(k, "X-Cluster-") {
			delete(h, k)
		}
	}
	return answer{rec.Code, h, rec.Body.String()}
}

// TestFleetAnswersMatchSingleMapd drives one seeded request stream
// through a single mapd and through routers over 1, 2 and 3 shards,
// healthy, with shard 0 killed a third of the way in, and with shard 0
// killed and restarted over its store two thirds of the way in. Every
// status, body and header but X-Cluster-* must equal the single mapd's,
// except for the kinds in expectedDiffs. The healthy rows also hold the
// routing gates: no failovers, no refusals, every request counted on
// exactly one shard, and at least two shards serving when there are.
func TestFleetAnswersMatchSingleMapd(t *testing.T) {
	stream := diffStream(t, 1, 400)
	kinds, badSearches := map[string]int{}, 0
	for _, q := range stream {
		kinds[q.kind]++
		if q.kind == kindMalformed && q.path == "/v1/search" {
			badSearches++
		}
	}
	t.Logf("stream of %d requests: %v", len(stream), kinds)
	if badSearches != len(malformedSearches) {
		t.Fatalf("stream carries %d malformed searches, want all %d", badSearches, len(malformedSearches))
	}

	single := newFleetShard(t)
	want := make([]answer, len(stream))
	for i, q := range stream {
		want[i] = answerOf(single.serve(q.request()))
		switch a := want[i]; {
		case a.status >= 500:
			t.Fatalf("single mapd: request %d (%s) answered %d: %s", i, q.kind, a.status, a.body)
		case a.status >= 400 && q.kind != kindMalformed:
			t.Fatalf("single mapd: request %d (%s) answered %d: %s", i, q.kind, a.status, a.body)
		case a.status < 400 && q.kind == kindMalformed:
			t.Fatalf("single mapd: malformed request %d answered %d: %s", i, a.status, a.body)
		}
	}
	if hits := single.metrics().Gauges["search.evalcache.hits"]; hits <= 0 {
		t.Fatalf("single mapd: %v eval-cache hits, want the stream's repeats to hit", hits)
	}

	differed := map[string]int{}
	for _, cell := range []struct {
		shards           int
		killAt, reviveAt int // request indices; -1 never
	}{
		{1, -1, -1},
		{2, -1, -1}, {2, len(stream) / 3, -1}, {2, len(stream) / 3, 2 * len(stream) / 3},
		{3, -1, -1}, {3, len(stream) / 3, -1}, {3, len(stream) / 3, 2 * len(stream) / 3},
	} {
		name := fmt.Sprintf("%d shards", cell.shards)
		switch {
		case cell.reviveAt >= 0:
			name += ", shard 0 killed and restarted"
		case cell.killAt >= 0:
			name += ", shard 0 killed"
		}
		t.Run(name, func(t *testing.T) {
			shards, urls := newFleet(t, cell.shards)
			rt, reg := newTestRouter(t, urls, nil)
			served := map[string]bool{}
			for i, q := range stream {
				switch i {
				case cell.killAt:
					shards[0].kill()
				case cell.reviveAt:
					shards[0].restart(rt)
				}
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, q.request())
				if s := rec.Header().Get("X-Cluster-Shard"); s != "" {
					served[s] = true
				}
				got := answerOf(rec)
				if reflect.DeepEqual(got, want[i]) {
					continue
				}
				if expected, ok := expectedDiffs[q.kind]; !ok || !expected(got, want[i]) {
					t.Fatalf("request %d (%s) %s\n fleet: %d %v %s\nsingle: %d %v %s", i, q.kind, q.body,
						got.status, got.header, got.body, want[i].status, want[i].header, want[i].body)
				}
				differed[q.kind]++
			}
			if cell.killAt >= 0 {
				return
			}
			snap := reg.Snapshot().Counters
			var routed int64
			for s := 0; s < cell.shards; s++ {
				routed += snap[fmt.Sprintf("cluster.routes.shard%d", s)]
			}
			switch {
			case snap["cluster.failovers"] != 0 || snap["cluster.no_replica"] != 0:
				t.Fatalf("healthy fleet: failovers %d, no_replica %d; want 0 and 0",
					snap["cluster.failovers"], snap["cluster.no_replica"])
			case routed != int64(len(stream)):
				t.Fatalf("per-shard route counts sum to %d, want %d", routed, len(stream))
			case cell.shards >= 2 && len(served) < 2:
				t.Fatalf("every request landed on one shard of %d: %v", cell.shards, served)
			}
		})
	}
	for kind := range expectedDiffs {
		if differed[kind] == 0 {
			t.Errorf("%s answers now match a single mapd in every cell: delete its expectedDiffs row", kind)
		}
	}
	t.Logf("differing answers by kind over the matrix: %v", differed)
}

// genClusterBodies builds n distinct evals from the seed: one
// antidiagonal stride each, over recurrences whose dims vary so the
// (graph, target) keys spread over the shards. Distinct strides keep
// every (graph, schedule, target) triple unique, which makes the kill
// test's store-hit count exact.
func genClusterBodies(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(900)
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{
			"recurrence": {"dims": [%d, %d], "deps": [[1, 0], [0, 1]]},
			"target": {"width": 4},
			"schedules": [{"kind": "antidiagonal", "stride": %d}],
			"deadline_ms": 60000
		}`, 5+rng.Intn(6), 5+rng.Intn(6), 100+perm[i])
	}
	return bodies
}

// killPhase replays the bodies through rt, requiring a clean 200 for
// each, and returns the answers with their serving and primary shards.
func killPhase(t *testing.T, rt *Router, name string, bodies []string) (answers []string, served, primary []int) {
	t.Helper()
	for i, body := range bodies {
		rec := do(rt, "POST", "/v1/eval", body)
		var ev serve.EvalResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ev) != nil || ev.Degraded {
			t.Fatalf("%s request %d: status %d: %s", name, i, rec.Code, rec.Body.String())
		}
		s, err1 := strconv.Atoi(rec.Header().Get("X-Cluster-Shard"))
		p, err2 := strconv.Atoi(rec.Header().Get("X-Cluster-Primary"))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s request %d: bad attribution headers %v", name, i, rec.Header())
		}
		answers, served, primary = append(answers, rec.Body.String()), append(served, s), append(primary, p)
	}
	return answers, served, primary
}

// TestFleetKillAndRejoin is the cluster kill drill. Phase A prices 24
// distinct mappings on a healthy 3-shard fleet. The primary of the
// first request dies; phase B replays: every answer is unchanged, the
// dead shard serves nothing, and the router counts exactly one failover
// per request the dead shard was primary for. The shard restarts over
// its store and phase C replays again: answers unchanged, failovers
// still, the shard serves its keys again and answers every one from its
// store.
func TestFleetKillAndRejoin(t *testing.T) {
	const victimKeysWant = 11 // shard ownership of the seed-1 stream is a function of the ring
	bodies := genClusterBodies(1, 24)
	shards, urls := newFleet(t, 3)
	rt, reg := newTestRouter(t, urls, nil)

	answersA, _, primaries := killPhase(t, rt, "phase A", bodies)
	if n := counter(reg, "cluster.failovers"); n != 0 {
		t.Fatalf("phase A: %d failovers on a healthy fleet", n)
	}
	victim, victimKeys := primaries[0], 0
	for _, p := range primaries {
		if p == victim {
			victimKeys++
		}
	}
	if victimKeys != victimKeysWant {
		t.Fatalf("shard %d is primary for %d of %d keys, want %d", victim, victimKeys, len(bodies), victimKeysWant)
	}
	shards[victim].kill()

	answersB, servedB, _ := killPhase(t, rt, "phase B", bodies)
	failovers := counter(reg, "cluster.failovers")
	if failovers != int64(victimKeys) {
		t.Fatalf("phase B: %d failovers, want exactly %d (one per request whose primary died)", failovers, victimKeys)
	}
	for i, s := range servedB {
		if s == victim {
			t.Fatalf("phase B request %d served by the dead shard %d", i, victim)
		}
	}

	shards[victim].restart(rt)
	answersC, servedC, _ := killPhase(t, rt, "phase C", bodies)
	if !reflect.DeepEqual(answersA, answersB) || !reflect.DeepEqual(answersA, answersC) {
		t.Fatalf("answers changed across the kill or the rejoin")
	}
	if n := counter(reg, "cluster.failovers"); n != failovers {
		t.Fatalf("phase C: failovers moved from %d to %d", failovers, n)
	}
	rejoined := 0
	for _, s := range servedC {
		if s == victim {
			rejoined++
		}
	}
	snap := shards[victim].metrics()
	hits, misses := snap.Counters["serve.store.hits"], snap.Gauges["search.evalcache.misses"]
	if rejoined != victimKeys || hits != int64(rejoined) || misses != 0 {
		t.Fatalf("rejoined shard served %d (want %d), store hits %d (want %d), eval-cache misses %v (want 0)",
			rejoined, victimKeys, hits, rejoined, misses)
	}
}

// A shard's 504 is the client's deadline, identical on every replica:
// the router relays it without failing over or marking the shard down.
func TestShardDeadlineRelayedWithoutFailover(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, reg := newTestRouter(t, fleet.urls, nil)
	primary, _ := replicaSet(t, rt)
	fleet.status[primary].Store(http.StatusGatewayTimeout)
	rec := do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusGatewayTimeout || rec.Header().Get("X-Cluster-Shard") != strconv.Itoa(primary) {
		t.Fatalf("status %d from shard %s, want the primary's 504 relayed", rec.Code, rec.Header().Get("X-Cluster-Shard"))
	}
	if n := counter(reg, "cluster.failovers"); n != 0 {
		t.Fatalf("failovers = %d, want 0", n)
	}
	if !rt.health.healthy(primary) {
		t.Fatalf("a 504 must not mark the shard down")
	}
}

// An eval whose X-Deadline-Ms expires on the shard gets the status a
// single mapd gives it, not a 502 after every replica timed out.
func TestDeadlineEvalStatusMatchesSingleMapd(t *testing.T) {
	const body = `{"recurrence": {"dims": [100, 100], "deps": [[1, 0], [0, 1]]},
		"target": {"width": 16, "height": 16}, "schedules": [{"kind": "serial"}]}`
	req := func() *http.Request {
		r := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body))
		r.Header.Set("X-Deadline-Ms", "1")
		return r
	}
	want := newFleetShard(t).serve(req()).Code
	if want != http.StatusGatewayTimeout {
		t.Fatalf("single mapd answered %d, want 504", want)
	}
	_, urls := newFleet(t, 3)
	rt, reg := newTestRouter(t, urls, nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req())
	if rec.Code != want || counter(reg, "cluster.failovers") != 0 {
		t.Fatalf("router answered %d with %d failovers, single mapd %d: %s",
			rec.Code, counter(reg, "cluster.failovers"), want, rec.Body.String())
	}
}

// fuzzRouterBodies seed FuzzRouterRoutes: the cluster tests' bodies,
// copies of serve's fuzz seeds (unexported there), and every malformed
// search the router relays.
var fuzzRouterBodies = append([]string{
	routeBody,
	clusterSearchBody,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0]]}, "target": {"width": 4}, "chains": 99}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "kind": "exhaustive"}`,
	`{"recurrence": {"dims": [6, 6], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4},
	  "schedules": [{"kind": "serial"}, {"kind": "antidiagonal"}]}`,
	`{"recurrence": {"dims": [8, 8], "deps": [[1, 0], [0, 1], [1, 1]], "op": "cmp", "bits": 16},
	  "target": {"width": 4}, "kind": "anneal", "iters": 200, "chains": 2, "seed": 3}`,
	`{"recurrence": {"dims": [5, 5], "deps": [[1, -1], [0, 1]]},
	  "target": {"width": 2, "height": 2}, "schedule": {"kind": "list"}}`,
	`{"recurrence": {"name": "cube", "dims": [3, 4, 5], "deps": [[1, 0, 0], [0, 0, 1], [0, 0, 1]], "op": "fma"},
	  "target": {"width": 4, "pitch_mm": 0.5, "mem_words_per_node": 64}, "schedules": [{"kind": "serial"}]}`,
	`{"graph_fp": "1f2e3d4c5b6a7988", "target": {"width": 4}, "schedules": [{"kind": "serial"}]}`,
	`{"recurrence": {"dims": [0, 4], "deps": []}, "target": {"width": 4}}`,
	`{"recurrence": {"dims": [4, 4], "deps": [[0, -1]]}, "target": {"width": 4}}`,
	`{"recurrence": {"dims": [4], "deps": [[1]]}, "target": {"width": 0}}`,
	`{"target": {"width": 4}}`,
	`{"recurrence": null, "graph_fp": "zz"}`,
	`{"recurrence": {"dims": [4, 4], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4294967296, "height": 4294967296}, "schedules": [{"kind": "list"}]}`,
}, malformedSearches...)

// FuzzRouterRoutes sends arbitrary bodies through a router over two
// real in-process shards, each under a 300 ms deadline. A panic fails
// the run, and so does any 5xx but a deadline's 504 or a cancellation's
// 503; TestMain's leak check covers the goroutines the inputs start.
func FuzzRouterRoutes(f *testing.F) {
	routes := []struct{ method, path string }{
		{"POST", "/v1/eval"},
		{"POST", "/v1/search"},
		{"GET", "/v1/slack"},
	}
	for i := range routes {
		for _, body := range fuzzRouterBodies {
			f.Add(uint8(i), []byte(body))
		}
	}
	_, urls := newFleet(f, 2)
	htr := &http.Transport{}
	f.Cleanup(htr.CloseIdleConnections)
	rt, err := NewRouter(Config{
		Shards: urls, HedgeDelay: -1, Clock: clock.NewFake(time.Unix(2000, 0)),
		Client: &http.Client{Transport: htr},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := rt.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := routes[int(route)%len(routes)]
		req := httptest.NewRequest(r.method, r.path, bytes.NewReader(body))
		req.Header.Set("X-Deadline-Ms", "300")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if c := rec.Code; c >= 500 && c != http.StatusServiceUnavailable && c != http.StatusGatewayTimeout {
			t.Fatalf("%s %s answered %d: %s", r.method, r.path, c, rec.Body.String())
		}
	})
}
