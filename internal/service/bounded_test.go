package service

import (
	"runtime"
	"testing"

	"subthreads/internal/workload"
)

// tlsd holds its programs within programBudget: a stream of novel workloads
// no longer grows the heap by every program it builds, the programs a stream
// reuses stay memory hits, and an evicted program comes back through the
// store or a rebuild with the same served bytes.

// novelSpec is the i-th workload of a soak stream: one PAYMENT or ORDER
// STATUS transaction on a seed no other test uses, so every job builds its
// program. The jobs run the SEQUENTIAL experiment, whose own run is the
// reference: one build (a database load) per job keeps the soak cheap.
func novelSpec(i int) JobSpec {
	warmup := 1
	seed := int64(1_000_000 + i)
	bench := "ORDER STATUS"
	if i%2 == 1 {
		bench = "PAYMENT"
	}
	return JobSpec{Benchmark: bench, Experiment: "SEQUENTIAL", Txns: 1, Warmup: &warmup, Seed: &seed}
}

// runAll submits specs in order, at most two in flight, and requires each
// to complete.
func runAll(t *testing.T, s *Server, specs []JobSpec) []*Job {
	t.Helper()
	jobs := make([]*Job, len(specs))
	wait := func(j *Job) {
		<-j.Done()
		if j.State() != StateDone {
			t.Fatalf("job %s: state %s", j.ID(), j.State())
		}
	}
	for i, spec := range specs {
		j, _, err := s.Submit(spec, "")
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs[i] = j
		if i >= 1 {
			wait(jobs[i-1])
		}
	}
	wait(jobs[len(jobs)-1])
	return jobs
}

// liveHeap is the heap left after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// requireWithinBudget fails unless the programs held fit the budget, which
// holds once no fill is in flight and no single program outgrows it.
func requireWithinBudget(t *testing.T, b workload.BuildStats) {
	t.Helper()
	if b.ResidentBytes <= 0 || b.ResidentBytes > programBudget {
		t.Errorf("resident_bytes = %d, want within the %d-byte budget", b.ResidentBytes, programBudget)
	}
}

// A soak of 200 novel workloads, with and without a store, holds the live
// heap: the programs stay within programBudget, and what still grows is the
// job table. Without the budget, this stream grows the live heap to 27.5
// MiB at job 100 and 55 MiB at job 200. The first job's workload, evicted
// by the stream, is rebuilt for a variant of it and served byte-identical
// to tlssim -json.
func TestSoakHoldsLiveHeap(t *testing.T) {
	const (
		soakJobs = 200
		// The bounds, from measurement (about 18 and 0.8 MiB on 2 CPUs):
		// 16 MiB of programs, plus the job table at about 8 KB a job.
		maxGrowth     = 24 << 20 // whole soak
		maxLateGrowth = 4 << 20  // its second half, once the budget is full
	)
	for _, tc := range []struct {
		name  string
		store bool
	}{{"memory", false}, {"store", true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: 2, QueueDepth: soakJobs}
			if tc.store {
				opts.Store = openTestStore(t, t.TempDir())
			}
			s, _ := newTestServer(t, opts)
			first := novelSpec(-1)
			runAll(t, s, []JobSpec{first})

			specs := make([]JobSpec, soakJobs)
			for i := range specs {
				specs[i] = novelSpec(i)
			}
			before := liveHeap()
			runAll(t, s, specs[:soakJobs/2])
			half := liveHeap()
			runAll(t, s, specs[soakJobs/2:])
			after := liveHeap()
			t.Logf("live heap %.1f MiB -> %.1f MiB at job %d -> %.1f MiB at job %d",
				mib(before), mib(half), soakJobs/2, mib(after), soakJobs)
			if after > before && after-before > maxGrowth {
				t.Errorf("the soak grew the live heap by %.1f MiB, want at most %.1f MiB", mib(after-before), mib(maxGrowth))
			}
			if after > half && after-half > maxLateGrowth {
				t.Errorf("the soak's second half grew the live heap by %.1f MiB, want at most %.1f MiB", mib(after-half), mib(maxLateGrowth))
			}
			b := s.MetricsSnapshot().Builder
			if b.Evictions == 0 {
				t.Errorf("builder stats = %+v: the soak evicted nothing", b)
			}
			requireWithinBudget(t, b)

			variant := first
			variant.Spacing = 2500
			j := runAll(t, s, []JobSpec{variant})[0]
			requireExpected(t, variant, j.Result())
			if got := s.MetricsSnapshot().Builder; got.Builds != b.Builds+1 {
				t.Errorf("the variant's evicted program: builds %d, want %d", got.Builds, b.Builds+1)
			}
		})
	}
}

func mib(n uint64) float64 { return float64(n) / (1 << 20) }

// Under serve's shape, the programs a stream reuses stay memory hits: three
// NEW ORDER bases, each revisited as a spacing variant, interleaved with
// single-use PAYMENT workloads whose TLS programs (about 0.35 MB each, 14.8
// MB in all) push the budget past its 16 MiB beside the bases'. A budget
// that evicted in fill order instead of by use would rebuild the bases.
func TestReusedProgramsStayResident(t *testing.T) {
	const rounds, novelPerVariant = 7, 2
	warmup := 1
	spec := func(bench string, txns int, seed int64, spacing uint64) JobSpec {
		return JobSpec{Benchmark: bench, Txns: txns, Warmup: &warmup, Seed: &seed, Spacing: spacing}
	}
	var bases, warm, stream []JobSpec
	for k := range int64(3) {
		bases = append(bases, spec("NEW ORDER", 2, 42+k, 0))
		warm = append(warm, spec("NEW ORDER", 2, 42+k, 900))
	}
	novel := 0
	for r := range rounds {
		for k := range bases {
			stream = append(stream, spec("NEW ORDER", 2, 42+int64(k), uint64(1000+100*r)))
			for range novelPerVariant {
				stream = append(stream, spec("PAYMENT", 1, 2_000_000+int64(novel), 0))
				novel++
			}
		}
	}

	s, _ := newTestServer(t, Options{Workers: 2, QueueDepth: len(stream)})
	// The bases build their TLS programs (7.5 MiB together; their
	// SEQUENTIAL programs are one-use and never resident); a first variant
	// of each marks its TLS program as the one in use.
	runAll(t, s, bases)
	runAll(t, s, warm)
	jobs := runAll(t, s, stream)
	b := s.MetricsSnapshot().Builder
	variants := uint64(len(warm) + rounds*len(bases))
	// Each base and each novel workload records its TLS and SEQUENTIAL
	// programs once, from one load and its clone; every variant finds its
	// base's TLS program in memory.
	novelJobs := uint64(len(bases) + novel)
	want := workload.BuildStats{Builds: 2 * novelJobs, Loads: novelJobs, Clones: novelJobs, MemoryHits: variants,
		ReferenceRuns: novelJobs, ReferenceMemoryHits: variants}
	if tierCounts(b) != want {
		t.Errorf("builder stats = %+v, want %+v", tierCounts(b), want)
	}
	if b.Evictions == 0 {
		t.Errorf("builder stats = %+v: the stream evicted nothing", b)
	}
	requireWithinBudget(t, b)
	requireExpected(t, stream[len(stream)-1], jobs[len(jobs)-1].Result())
	requireExpected(t, stream[0], jobs[0].Result())
}
