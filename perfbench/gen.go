package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// result is one request's outcome as the generator saw it.
type result struct {
	req *request
	// id is the request id stamped on traced requests.
	id uint64
	// intended is the open-loop send instant (zero in a closed loop).
	intended   time.Time
	sent, done time.Time
	status     int
	body       []byte
	// shard is the router's X-Cluster-Shard attribution.
	shard string
	err   error
}

// latency is the request's latency: from its intended send instant in an
// open loop, from its actual send in a closed loop.
func (r *result) latency() time.Duration {
	if r.intended.IsZero() {
		return r.done.Sub(r.sent)
	}
	return r.done.Sub(r.intended)
}

// generator drives one fleet over loopback HTTP with at most workers
// goroutines and connections per host, on its own transport.
type generator struct {
	tr      *http.Transport
	client  *http.Client
	workers int
	// bodies interns answers: a run repeats most of them, and keeping
	// one copy each stops the process's peak RSS from growing with the
	// number of requests completed.
	mu     sync.Mutex
	bodies map[string][]byte // guarded by mu
	// spans, when set, records a generator span per request and stamps
	// the request id on the wire.
	spans *spanLog
}

func newGenerator(workers int) *generator {
	tr := &http.Transport{
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
	}
	return &generator{tr: tr, client: &http.Client{Transport: tr}, workers: workers, bodies: make(map[string][]byte)}
}

func (g *generator) close() { g.tr.CloseIdleConnections() }

// do sends one request to base and reads the whole answer.
func (g *generator) do(base string, r *request) result {
	res := result{req: r}
	hr, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	hr.Header.Set("Content-Type", "application/json")
	var s span
	if g.spans != nil {
		res.id = g.spans.ids.Add(1)
		s = span{Name: "generator", Path: r.path, ID: res.id, Req: res.id, Start: g.spans.now()}
		id := strconv.FormatUint(res.id, 10)
		hr.Header.Set(hdrReq, id)
		hr.Header.Set(hdrParent, id)
	}
	res.sent = time.Now()
	resp, err := g.client.Do(hr)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.body = g.intern(body)
		res.status = resp.StatusCode
		res.shard = resp.Header.Get("X-Cluster-Shard")
	}
	res.done = time.Now()
	res.err = err
	if g.spans != nil {
		s.End = g.spans.now()
		g.spans.add(s)
	}
	return res
}

func (g *generator) intern(b []byte) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	if kept, ok := g.bodies[string(b)]; ok {
		return kept
	}
	g.bodies[string(b)] = b
	return b
}

// each runs body on every worker goroutine and gathers what they return.
func (g *generator) each(body func() []result) []result {
	parts := make([][]result, g.workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = body()
		}()
	}
	wg.Wait()
	var out []result
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// sendAll sends every request of seq to base, in order across workers,
// with no time limit: the set-up path.
func (g *generator) sendAll(base string, seq []*request) []result {
	var next atomic.Int64
	return g.each(func() []result {
		var out []result
		for i := next.Add(1) - 1; i < int64(len(seq)); i = next.Add(1) - 1 {
			out = append(out, g.do(base, seq[i]))
		}
		return out
	})
}

// closedLoop sends seq back to back on every worker for d, continuing
// from next and wrapping at its end, and returns the results with the
// elapsed time.
func (g *generator) closedLoop(base string, seq []*request, d time.Duration, next *atomic.Int64) ([]result, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	out := g.each(func() []result {
		var out []result
		for time.Now().Before(deadline) {
			i := next.Add(1) - 1
			out = append(out, g.do(base, seq[i%int64(len(seq))]))
		}
		return out
	})
	return out, time.Since(start)
}

// openStats describes how closely the generator kept its schedule.
type openStats struct {
	// lags are the send delays past each request's intended instant.
	lags []float64
	// backlogMax is the most requests ever due but not yet sent.
	backlogMax int
	// unsent counts requests still unsent when the grace ran out.
	unsent int
}

// openLoop sends seq at a fixed rate: request i is due at t0 + i/rate
// whatever happened to the requests before it, so a stall delays every
// later request and its wait is counted in that request's latency.
// Requests not sent within grace after the schedule ends are abandoned.
// The results come back in schedule order.
func (g *generator) openLoop(base string, seq []*request, rate float64, grace time.Duration) ([]result, openStats) {
	period := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(time.Millisecond)
	stop := t0.Add(time.Duration(len(seq))*period + grace)
	var next, backlogMax atomic.Int64
	out := g.each(func() []result {
		var out []result
		for {
			i := next.Add(1) - 1
			if i >= int64(len(seq)) {
				return out
			}
			due := t0.Add(time.Duration(i) * period)
			now := time.Now()
			if now.After(stop) {
				return out
			}
			if now.Before(due) {
				waitUntil(due)
			} else {
				storeMax(&backlogMax, int64(now.Sub(t0)/period)+1-i)
			}
			res := g.do(base, seq[i])
			res.intended = due
			out = append(out, res)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].intended.Before(out[j].intended) })
	st := openStats{backlogMax: int(backlogMax.Load()), unsent: len(seq) - len(out)}
	for i := range out {
		st.lags = append(st.lags, ms(out[i].sent.Sub(out[i].intended)))
	}
	return out, st
}

// waitUntil returns at t. A timer sleep can overshoot by a millisecond
// on Linux, which would count as service latency at open-loop rates of
// a request per millisecond, so the last stretch yields instead.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 3*time.Millisecond/2)
		default:
			runtime.Gosched()
		}
	}
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}
