// Command tlsd is the simulation-serving daemon: a long-lived HTTP service
// that queues, deduplicates, caches, and streams simulations of the
// sub-threads machine. Where cmd/tlssim answers one question per process,
// tlsd turns the simulator into infrastructure — a design-space sweep is 20
// POSTs, repeated questions are content-addressed cache hits, and every
// result is byte-identical to what tlssim prints for the same spec.
//
//	tlsd -addr :8080
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"benchmark":"NEW ORDER","txns":4,"warmup":1}'
//	curl -s localhost:8080/v1/jobs/job-3f9a0c27d41b8e65/result
//	curl -N localhost:8080/v1/jobs/job-3f9a0c27d41b8e65/events
//
// where job-3f9a0c27d41b8e65 stands for the random job ID the POST answers
// with. See SERVICE.md for the full API schema. SIGINT/SIGTERM drains
// gracefully: readiness flips, admission stops, in-flight jobs finish, then
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/cliflags"
	"subthreads/internal/cluster"
	"subthreads/internal/service"
	"subthreads/internal/version"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker-pool size")
		queueDepth   = flag.Int("queue", 64, "admission queue capacity (full queue responds 429)")
		maxCycles    = flag.Uint64("max-cycles", 0, "default per-job cycle budget when the spec sets none (0 = unbounded)")
		jobTimeout   = flag.Duration("job-timeout", 0, "end-to-end wall-clock deadline per job (queue wait included) when the spec sets no timeout_ms, and the ceiling when it does; 0 = no deadline")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "shutdown grace period: jobs still live when it expires are cancelled and reported as structured \"drain\" failures")
		logFormat    = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		debugAddr    = flag.String("debug-addr", "", "listen address for the diagnostics server (pprof, /debug/requests); empty disables it")
		flightDir    = flag.String("flight-dir", filepath.Join(os.TempDir(), "tlsd-flight"), "directory for failure flight-recorder dumps; empty disables the recorder")
		flightEvents = flag.Int("flight-events", 4096, "telemetry events the flight recorder dumps from the tail of a failed job's stream")
		peers        = flag.String("peers", "", "comma-separated sibling tlsd base URLs whose caches are probed (GET /v1/cache/{digest}) before recomputing a locally-missed digest")
		cacheDir     = flag.String("cache-dir", "", "persistent store directory for result bodies (empty = in-memory only)")
		chaosSpec    = cliflags.AddChaos(flag.CommandLine)
		showVersion  = cliflags.AddVersion(flag.CommandLine)
	)
	// Server-wide hardening defaults, overlaid on jobs that don't set their
	// own (and therefore part of each job's content address).
	faults := cliflags.AddFaults(flag.CommandLine)
	flag.Parse()
	if err := cliflags.NoArgs(flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
		os.Exit(2)
	}
	cliflags.HandleVersion(*showVersion)
	if *workers < 1 || *queueDepth < 1 {
		fmt.Fprintf(os.Stderr, "tlsd: -workers and -queue must be >= 1, got %d and %d\n", *workers, *queueDepth)
		os.Exit(2)
	}

	if _, err := faults.Config(); err != nil {
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
		os.Exit(2)
	}
	chaosSched, err := cliflags.OpenChaos(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
		os.Exit(2)
	}

	logger, err := cliflags.NewLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
		os.Exit(2)
	}

	// Without -cache-dir the store stays nil, and the result cache is
	// memory-only: each cas.Store method is a no-op on nil.
	var store *cas.Store
	if *cacheDir != "" {
		if store, err = cas.Open(*cacheDir, logger); err != nil {
			fmt.Fprintf(os.Stderr, "tlsd: open cache dir %s: %v\n", *cacheDir, err)
			os.Exit(2)
		}
		defer store.Close()
		fmt.Printf("tlsd: persistent cache at %s\n", store.Dir())
	}

	opts := service.Options{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		DefaultMaxCycles: *maxCycles,
		Paranoid:         faults.Paranoid,
		Inject:           faults.Inject,
		Logger:           logger,
		FlightDir:        *flightDir,
		FlightEvents:     *flightEvents,
		Store:            store,
		JobTimeout:       *jobTimeout,
		Chaos:            chaosSched,
	}
	if peerURLs := cliflags.SplitURLs(*peers); len(peerURLs) > 0 {
		// The remote cache tier: before recomputing a digest that missed
		// memory and disk, ask the siblings' caches. Each link has its own
		// breaker, so a sick sibling degrades to recompute.
		group := cluster.NewRemoteGroup(peerURLs, logger)
		opts.RemoteFetch = group.Fetch
		fmt.Printf("tlsd: remote cache tier over %d sibling(s)\n", len(peerURLs))
	}
	s := service.New(opts)
	if chaosSched != nil {
		fmt.Printf("tlsd: CHAOS ARMED (%s) — injected faults are deliberate\n", chaosSched.Config())
	}
	srv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *debugAddr != "" {
		// The diagnostics surface (pprof + /debug/requests) lives on its own
		// opt-in listener so profiling never shares the public port.
		dbg := &http.Server{Addr: *debugAddr, Handler: s.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server stopped", slog.String("error", err.Error()))
			}
		}()
		defer dbg.Close()
		fmt.Printf("tlsd: debug surface on http://%s (pprof, /debug/requests)\n", *debugAddr)
	}
	fmt.Printf("tlsd: %s\n", version.Get())
	fmt.Printf("tlsd: serving on http://%s (%d workers, queue %d)\n", *addr, *workers, *queueDepth)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop admission and finish in-flight jobs while the
	// HTTP listener stays up so pollers can still collect results, then
	// close the listener.
	fmt.Println("tlsd: draining (admission stopped)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		if !errors.Is(err, service.ErrDrainTimeout) {
			fmt.Fprintf(os.Stderr, "tlsd: drain incomplete: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		// The grace period expired: the stragglers were cancelled and
		// reported as structured "drain" failures, the pool was reaped, and
		// shutdown is orderly — note it and exit cleanly.
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "tlsd: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("tlsd: drained, bye")
}
