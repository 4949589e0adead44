// Command maprouter is the cluster coordinator for a fleet of mapd
// shards (internal/cluster): it owns a rendezvous-hash ring over the
// shard addresses, routes /v1/eval and /v1/slack by content — the
// fm.Fingerprint(graph, target) routing key — with replicated failover
// and hedged retries, and runs a valid /v1/search anneal as a
// scatter-gather whose exchange barriers it arbitrates with a
// deterministic winner rule; other searches go whole to one shard. GET /v1/metrics aggregates every shard's snapshot next to the
// router's own cluster.* counters; GET /healthz reports the per-shard
// routability view; POST /v1/probe forces an immediate health sweep.
//
// The router holds no durable state: ring, health marks, and the
// latency window are rebuilt from flags and live traffic, so restarting
// it (or running several) is always safe.
//
// SIGINT/SIGTERM drains: new requests get 503, in-flight forwards
// finish under the -drain budget, then the final metrics snapshot and
// retained traces are exported like mapd does.
//
// Usage:
//
//	maprouter -listen :9090 -shards http://127.0.0.1:8081,http://127.0.0.1:8082
//	maprouter -listen :9090 -shards ... -replicas 2 -hedge-delay 5ms
//	maprouter -listen :9090 -shards ... -probe-every 2s
//	maprouter -listen :9090 -shards ... -frozen-clock -trace-out traces.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
)

func main() {
	listen := flag.String("listen", ":9090", "address to listen on")
	shards := flag.String("shards", "", "comma-separated shard base URLs, index order is the cluster identity (required)")
	replicas := flag.Int("replicas", 2, "replica-set size per key (primary + failover/hedge targets)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fixed hedge trigger; 0 derives it from the latency quantile once 16 forwards are timed, negative disables hedging")
	hedgeQuantile := flag.Float64("hedge-quantile", 99, "latency percentile a request must outlive before its hedge fires")
	hedgeMin := flag.Duration("hedge-min", 2*time.Millisecond, "floor for the derived hedge delay")
	exchangeRounds := flag.Int("exchange-rounds", 3, "scatter-gather barrier rounds per /v1/search anneal")
	probeEvery := flag.Duration("probe-every", 2*time.Second, "health-probe interval (0 disables the loop; POST /v1/probe still works)")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-shard health probe timeout")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	obsOut := flag.String("obs-out", "", "write the final metrics snapshot as JSON to this path on shutdown")
	traceBuf := flag.Int("trace-buf", 256, "completed-trace ring buffer capacity (0 disables tracing)")
	traceExemplars := flag.Int("trace-exemplars", 4, "slowest traces pinned per route against ring eviction")
	traceSeed := flag.Uint64("trace-seed", 1, "seed trace/span IDs derive from")
	traceOut := flag.String("trace-out", "", "write retained traces as Chrome trace-event JSON to this path on shutdown")
	frozenClock := flag.Bool("frozen-clock", false, "freeze the router clock at the epoch (deterministic drills: hedges and probe loops never self-trigger)")
	flag.Parse()

	log := obs.NewLogger(os.Stderr, obs.LevelInfo)
	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardList = append(shardList, strings.TrimRight(s, "/"))
		}
	}
	if len(shardList) == 0 {
		fmt.Fprintln(os.Stderr, "maprouter: -shards is required (comma-separated base URLs)")
		os.Exit(2)
	}

	var clk clock.Clock = clock.System{}
	if *frozenClock {
		clk = clock.NewFake(time.Unix(0, 0))
	} else {
		log.WithNow(clk.Now)
	}
	var tracer *tracing.Tracer
	if *traceBuf > 0 {
		tracer = tracing.New(tracing.Options{
			Seed:      *traceSeed,
			Capacity:  *traceBuf,
			ExemplarK: *traceExemplars,
			Clock:     clk,
			OnExemplar: func(rec tracing.Record) {
				log.Info("slow-request exemplar retained",
					"trace_id", rec.TraceID, "route", rec.Route,
					"outcome", rec.Outcome, "duration_ns", rec.DurationNS)
			},
		})
	}

	reg := obs.New()
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:         shardList,
		Replicas:       *replicas,
		HedgeDelay:     *hedgeDelay,
		HedgeQuantile:  *hedgeQuantile,
		HedgeMin:       *hedgeMin,
		ExchangeRounds: *exchangeRounds,
		ProbeTimeout:   *probeTimeout,
		Clock:          clk,
		Obs:            reg,
		Tracer:         tracer,
	})
	if err != nil {
		log.Error("exiting", "err", err)
		os.Exit(1)
	}
	if err := run(rt, reg, tracer, *listen, *probeEvery, *drain, *obsOut, *traceOut, log); err != nil {
		log.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func run(rt *cluster.Router, reg *obs.Registry, tracer *tracing.Tracer, listen string, probeEvery, drainBudget time.Duration, obsOut, traceOut string, log *obs.Logger) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Info("routing", "addr", ln.Addr().String(), "shards", len(rt.Shards()))

	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	if probeEvery > 0 {
		// One synchronous sweep before traffic, so a shard that was down
		// at startup is not discovered by a failed forward.
		rt.ProbeOnce(probeCtx)
		go rt.ProbeLoop(probeCtx, probeEvery)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String(), "budget", drainBudget)
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	rt.Drain()
	stopProbes()
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if obsOut != "" {
		if err := writeSnapshot(obsOut, reg.Snapshot()); err != nil {
			return fmt.Errorf("write obs snapshot: %w", err)
		}
	}
	if traceOut != "" {
		if err := writeTraces(traceOut, tracer); err != nil {
			return fmt.Errorf("write traces: %w", err)
		}
	}
	log.Info("drained")
	return nil
}

func writeSnapshot(path string, snap obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTraces(path string, tracer *tracing.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
