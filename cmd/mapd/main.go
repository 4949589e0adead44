// Command mapd serves the F&M cost model over HTTP: cost evaluation
// (POST /v1/eval), mapping search (POST /v1/search), slack analysis
// (GET /v1/slack), metrics (GET /v1/metrics), request traces
// (GET /debug/traces), and health (GET /healthz). See internal/serve
// for the serving machinery — micro-batching, bounded-queue
// backpressure, deadline propagation, graceful degradation and
// shutdown.
//
// SIGINT/SIGTERM starts a graceful drain: the listener stops accepting,
// in-flight and queued work is finished (bounded by -drain), running
// anneals halt at their next exchange barrier (checkpointing when
// -checkpoint-dir is set), the persistent mapping store (when
// -store-dir is set) is flushed and closed, the final metrics snapshot
// is written to -obs-out, and the retained traces are flushed to
// -trace-out in Chrome trace-event form.
//
// Every request carries a flight-recorder trace (internal/obs/tracing):
// deterministic IDs from -trace-seed plus the admission sequence
// number, stages that sum exactly to the request span, the K slowest
// traces per route pinned in the ring buffer. With -frozen-clock the
// server reads a clock frozen at the epoch, so two same-seed drills
// export byte-identical traces — the CI trace drill diffs them.
//
// Log output is JSONL (internal/obs.Logger), one object per line; lines
// about a specific request carry its trace_id, which joins to the
// /debug/traces export.
//
// Usage:
//
//	mapd -listen :8080
//	mapd -listen :8080 -queue 128 -eval-workers 4 -searches 2
//	mapd -listen :8080 -checkpoint-dir /var/lib/mapd -obs-out final.json
//	mapd -listen :8080 -store-dir /var/lib/mapd/atlas
//	mapd -listen :8080 -admission-control   # enable POST /v1/admission
//	mapd -listen :8080 -trace-buf 1024 -trace-out traces.json
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
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	listen := flag.String("listen", ":8080", "address to listen on")
	poolWorkers := flag.Int("pool-workers", 0, "work-stealing pool size shared by batches and searches (0 = one per CPU)")
	queue := flag.Int("queue", 64, "eval admission queue capacity (full queue answers 429)")
	evalWorkers := flag.Int("eval-workers", 2, "queue drain workers")
	batchMax := flag.Int("batch-max", 32, "max eval jobs coalesced per batch")
	searches := flag.Int("searches", 2, "concurrent search slots")
	cacheEntries := flag.Int("cache", 1<<16, "eval cache capacity (entries)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline when the client sends none")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for crash-safe anneal checkpoints (enables resume across restarts)")
	storeDir := flag.String("store-dir", "", "directory for the persistent mapping atlas (warm eval answers across restarts)")
	obsOut := flag.String("obs-out", "", "write the final metrics snapshot as JSON to this path on shutdown")
	admission := flag.Bool("admission-control", false, "enable POST /v1/admission (runtime serve/shed/pause switching)")
	traceBuf := flag.Int("trace-buf", 256, "completed-trace ring buffer capacity (0 disables tracing)")
	traceExemplars := flag.Int("trace-exemplars", 4, "slowest traces pinned per route against ring eviction")
	traceSeed := flag.Uint64("trace-seed", 1, "seed trace/span IDs derive from (with the admission sequence number)")
	traceOut := flag.String("trace-out", "", "write retained traces as Chrome trace-event JSON to this path on shutdown")
	frozenClock := flag.Bool("frozen-clock", false, "freeze the serve clock at the epoch (deterministic trace drills; latency metrics read zero)")
	flag.Parse()

	log := obs.NewLogger(os.Stderr, obs.LevelInfo)
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

	if err := run(*listen, *storeDir, serve.Config{
		PoolWorkers:      *poolWorkers,
		QueueDepth:       *queue,
		EvalWorkers:      *evalWorkers,
		BatchMax:         *batchMax,
		MaxSearches:      *searches,
		CacheEntries:     *cacheEntries,
		DefaultDeadline:  *deadline,
		CheckpointDir:    *checkpointDir,
		AdmissionControl: *admission,
		Clock:            clk,
		Obs:              obs.New(),
		Tracer:           tracer,
	}, *drain, *obsOut, *traceOut, log); err != nil {
		log.Error("exiting", "err", err)
		os.Exit(1)
	}
}

func run(listen, storeDir string, cfg serve.Config, drainBudget time.Duration, obsOut, traceOut string, log *obs.Logger) error {
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(store.OS{}, storeDir, store.Options{Obs: cfg.Obs})
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		rep := st.Report()
		kv := []any{
			"records", rep.Records, "segments", rep.Segments,
			"truncated_bytes", rep.TruncatedBytes, "healthy", rep.Healthy(),
		}
		if !rep.Healthy() {
			kv = append(kv, "quarantined", len(rep.Quarantined), "missing", len(rep.Missing))
			log.Warn("store recovered UNHEALTHY: serving what survived", kv...)
		} else {
			log.Info("store recovered", kv...)
		}
		cfg.Store = st
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Info("listening", "addr", ln.Addr().String())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String(), "budget", drainBudget)
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	// Stop the listener and in-flight HTTP exchanges first, then drain
	// the service's own queues and searches.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if err := srv.Drain(ctx); err != nil {
		log.Error("drain", "err", err)
	}
	snap := srv.Close()
	if st != nil {
		// The drain finished every queued evaluation, so every pricing
		// has been appended; flush and seal the atlas.
		if err := st.Close(); err != nil {
			log.Error("store close", "err", err)
		}
	}
	if obsOut != "" {
		if err := writeSnapshot(obsOut, snap); err != nil {
			return fmt.Errorf("write obs snapshot: %w", err)
		}
	}
	if traceOut != "" {
		if err := writeTraces(traceOut, cfg.Tracer); err != nil {
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

// writeTraces flushes the drained server's retained traces in Chrome
// trace-event form — every request admitted before the drain has
// finished by now, so the export is complete, not a sample mid-flight.
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
