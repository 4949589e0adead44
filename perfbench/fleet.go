package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/serve"
	"repro/internal/store"
)

// untracedRing and tracedRing size the flight recorder: cmd/mapd's
// default, and large enough that a traced run keeps every trace.
const (
	untracedRing = 256
	tracedRing   = 1 << 19
)

// mapd is one in-process shard, built the way cmd/mapd builds it with
// its flag defaults and a -store-dir.
type mapd struct {
	srv    *serve.Server
	st     *store.Store
	tracer *tracing.Tracer
	hs     *http.Server
	done   chan error
	url    string
}

// fleet is every server of one run: one mapd, or a router over three.
type fleet struct {
	shards []*mapd
	router *cluster.Router
	rreg   *obs.Registry
	rtrace *tracing.Tracer
	rhs    *http.Server
	rdone  chan error
	// stopProbes ends the router's probe loop; probesDone closes when it
	// has returned.
	stopProbes context.CancelFunc
	probesDone chan struct{}
	// entry is the base URL the generator drives.
	entry string
	// fs counts store I/O in traced runs.
	fs *fsCounters
}

// serveOn runs h on a fresh 127.0.0.1:0 listener.
func serveOn(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), done, nil
}

func newTracer(ring int) *tracing.Tracer {
	return tracing.New(tracing.Options{Seed: 1, Capacity: ring, ExemplarK: 4, Clock: serve.SystemClock{}})
}

// startMapd opens a fsyncing store in a fresh directory under tmp and
// serves a mapd over it.
func startMapd(tmp string, spans *spanLog, fsc *fsCounters) (*mapd, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	var fsys store.FS = store.OS{}
	ring := untracedRing
	if spans != nil {
		fsys = countingFS{FS: fsys, c: fsc}
		ring = tracedRing
	}
	st, err := store.Open(fsys, dir, store.Options{Obs: reg})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m := &mapd{st: st, tracer: newTracer(ring)}
	m.srv, err = serve.NewServer(serve.Config{
		QueueDepth:      64,
		EvalWorkers:     2,
		BatchMax:        32,
		MaxSearches:     2,
		CacheEntries:    1 << 16,
		DefaultDeadline: 30 * time.Second,
		Clock:           serve.SystemClock{},
		Obs:             reg,
		Tracer:          m.tracer,
		Store:           st,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	m.hs, m.url, m.done, err = serveOn(spans.middleware("shard", m.srv.Handler()))
	if err != nil {
		m.srv.Close()
		st.Close()
		return nil, err
	}
	return m, nil
}

// close stops the listener, drains and closes the server, then seals
// the store, in cmd/mapd's shutdown order.
func (m *mapd) close(ctx context.Context) error {
	errs := []error{m.hs.Shutdown(ctx)}
	if err := <-m.done; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, m.srv.Drain(ctx))
	m.srv.Close()
	errs = append(errs, m.st.Close())
	return errors.Join(errs...)
}

// startFleet starts the servers a workload drives. Stores live in fresh
// directories under tmp; spans, when non-nil, instruments every layer.
func startFleet(spec workloadSpec, tmp string, spans *spanLog) (*fleet, error) {
	f := &fleet{}
	if spans != nil {
		f.fs = &fsCounters{}
	}
	n := 1
	if spec.cluster {
		n = 3
	}
	for range n {
		m, err := startMapd(tmp, spans, f.fs)
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, m)
	}
	if !spec.cluster {
		f.entry = f.shards[0].url
		return f, nil
	}
	urls := make([]string, n)
	for i, m := range f.shards {
		urls[i] = m.url
	}
	ring := untracedRing
	var client *http.Client
	if spans != nil {
		ring = tracedRing
		client = &http.Client{Transport: spans.roundTripper(http.DefaultTransport)}
	}
	f.rreg, f.rtrace = obs.New(), newTracer(ring)
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:         urls,
		Replicas:       2,
		HedgeQuantile:  99,
		HedgeMin:       2 * time.Millisecond,
		ExchangeRounds: 3,
		ProbeTimeout:   2 * time.Second,
		Clock:          cluster.SystemClock{},
		Client:         client,
		Obs:            f.rreg,
		Tracer:         f.rtrace,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.rhs, f.entry, f.rdone, err = serveOn(spans.middleware("router", rt.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	// cmd/maprouter: one synchronous sweep, then the 2s probe loop.
	ctx, cancel := context.WithCancel(context.Background())
	f.stopProbes, f.probesDone = cancel, make(chan struct{})
	rt.ProbeOnce(ctx)
	go func() {
		defer close(f.probesDone)
		rt.ProbeLoop(ctx, 2*time.Second)
	}()
	return f, nil
}

// close drains and stops every server and waits for each to end.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.router != nil {
		f.router.Drain()
		if f.stopProbes != nil {
			f.stopProbes()
			<-f.probesDone
		}
		if f.rhs != nil {
			errs = append(errs, f.rhs.Shutdown(ctx))
			if err := <-f.rdone; !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
	}
	for _, m := range f.shards {
		errs = append(errs, m.close(ctx))
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}
