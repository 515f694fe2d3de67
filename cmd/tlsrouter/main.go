// Command tlsrouter fronts a fleet of tlsd workers with one address. It
// speaks the daemon's own HTTP API, routes each submission to the worker
// that owns its content digest on a bounded-load consistent-hash ring
// (so repeated specs land on warm caches), health-probes the fleet, and
// fails a submission whose owner is down over to the next worker on the
// ring, whose own tiers (memory, disk, its -peers siblings) serve a warm
// digest without a recompute.
//
//	tlsrouter -addr :8090 -workers http://10.0.0.1:8080,http://10.0.0.2:8080
//	curl -s -X POST localhost:8090/v1/jobs?wait=1 \
//	     -d '{"benchmark":"NEW ORDER","txns":4,"warmup":1}'
//
// The router is stateless apart from a bounded job->worker map; clients
// see the same responses, headers, and byte-identical result bodies a
// single tlsd would serve. Its ring and health-probe settings are
// constants. See SERVICE.md ("Running a cluster").
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"subthreads/internal/cliflags"
	"subthreads/internal/cluster"
	"subthreads/internal/version"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8090", "HTTP listen address")
		workers     = flag.String("workers", "", "comma-separated tlsd base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
		logFormat   = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		showVersion = cliflags.AddVersion(flag.CommandLine)
	)
	flag.Parse()
	if err := cliflags.NoArgs(flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "tlsrouter: %v\n", err)
		os.Exit(2)
	}
	cliflags.HandleVersion(*showVersion)

	urls := cliflags.SplitURLs(*workers)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "tlsrouter: -workers is required (comma-separated tlsd base URLs)")
		os.Exit(2)
	}

	logger, err := cliflags.NewLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsrouter: %v\n", err)
		os.Exit(2)
	}

	rt, err := cluster.NewRouter(cluster.Options{Workers: urls, Logger: logger})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsrouter: %v\n", err)
		os.Exit(2)
	}
	rt.Start()
	defer rt.Close()

	srv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("tlsrouter: %s\n", version.Get())
	fmt.Printf("tlsrouter: routing on http://%s over %d workers\n", *addr, len(urls))

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "tlsrouter: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("tlsrouter: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "tlsrouter: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("tlsrouter: bye")
}
