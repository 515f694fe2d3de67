package service

import (
	"context"
	"log/slog"
	"testing"
	"time"

	"subthreads/internal/telemetry"
)

// shutdownServer drains a server created outside newTestServer.
func shutdownServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestDisabledObservabilityIsAllocationFree pins the library contract: with
// Options.Logger unset, every logging site reduces to one nil check — zero
// allocations per call — so embedding the server costs nothing when
// observability is off.
func TestDisabledObservabilityIsAllocationFree(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdownServer(t, s)
	if a := testing.AllocsPerRun(100, func() {
		s.jlog(slog.LevelInfo, "noop")
	}); a != 0 {
		t.Errorf("nil-logger jlog allocates %.0f per call, want 0", a)
	}
}

// epochCommits counts committed epochs in a telemetry stream.
func epochCommits(evs []telemetry.Event) int {
	n := 0
	for i := range evs {
		if evs[i].Kind == telemetry.EpochCommit {
			n++
		}
	}
	return n
}

// servingAllocBudget bounds the serving hot path with observability off, in
// allocations per committed epoch. The simulator's own budget is ~416
// allocs/epoch (BenchmarkSimulate, PR 2); the serving path additionally
// retains every telemetry event for SSE replay and renders the result
// document once per run, so the bound carries headroom for that amortized
// cost — but a per-epoch allocation regression from logging, correlation,
// stage timing, or the (disabled) flight recorder would blow through it.
const servingAllocBudget = 600

func TestServingHotPathStaysWithinAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	s := New(Options{Workers: 1, QueueDepth: 1}) // no Logger, no FlightDir
	defer shutdownServer(t, s)

	spec := tinySpec("NEW ORDER")
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// Warm the shared build cache and the SEQUENTIAL reference so the
	// measurement sees only the per-run serving path: simulate, look the
	// reference up, render.
	warm := newJob("warm", "c", spec, r, time.Now())
	if _, _, failure := s.execute(warm); failure != nil {
		t.Fatalf("warm-up failed: %+v", failure)
	}
	epochs := epochCommits(warm.fan.Events())
	if epochs == 0 {
		t.Fatal("warm-up run committed no epochs")
	}

	allocs := testing.AllocsPerRun(3, func() {
		j := newJob("bench", "c", spec, r, time.Now())
		if _, _, failure := s.execute(j); failure != nil {
			t.Fatalf("job failed: %+v", failure)
		}
	})
	perEpoch := allocs / float64(epochs)
	t.Logf("observability off: %.0f allocs/run over %d epochs = %.1f allocs/epoch (budget %d)",
		allocs, epochs, perEpoch, servingAllocBudget)
	if perEpoch > servingAllocBudget {
		t.Errorf("disabled-observability serving path allocates %.1f/epoch, budget %d", perEpoch, servingAllocBudget)
	}
}

// BenchmarkExecuteObservabilityOff is the benchmark form of the guard for
// `go test -bench -benchmem`: one iteration is one served run on a server
// with logging and the flight recorder disabled.
func BenchmarkExecuteObservabilityOff(b *testing.B) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdownServer(b, s)
	spec := tinySpec("NEW ORDER")
	r, err := spec.Resolve()
	if err != nil {
		b.Fatalf("Resolve: %v", err)
	}
	warm := newJob("warm", "c", spec, r, time.Now())
	if _, _, failure := s.execute(warm); failure != nil {
		b.Fatalf("warm-up failed: %+v", failure)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := newJob("bench", "c", spec, r, time.Now())
		if _, _, failure := s.execute(j); failure != nil {
			b.Fatalf("job failed: %+v", failure)
		}
	}
	b.ReportMetric(float64(epochCommits(warm.fan.Events())), "epochs")
}
