// Package inject is the deterministic fault injector: it perturbs a
// simulation with synthetic violations (forced sub-thread squashes),
// overflow storms (synthetic speculative-buffer exhaustion, exercising both
// OverflowStall and OverflowSquash responses), and delayed latch grants.
// Every schedule is a pure function of its seed, so two runs with the same
// seed and configuration — on any worker count — see byte-identical fault
// sequences, and a failing schedule reproduces from its flag line alone.
package inject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"subthreads/internal/sim"
	"subthreads/internal/tls"
)

// DefaultWatchdog is the forward-progress bound the cmd tools apply when
// injection is enabled without an explicit watchdog: generous enough for the
// longest committed workloads, tight enough to convert a real livelock into
// an error in seconds.
const DefaultWatchdog = 5_000_000

// Config parameterizes one fault schedule.
type Config struct {
	// Seed selects the schedule; equal seeds give equal schedules.
	Seed uint64
	// Faults is how many squash/overflow faults to schedule.
	Faults int
	// Window is the cycle range [1, Window] the faults are spread over.
	Window uint64
	// LatchEvery suppresses latch grants on every cycle whose number is
	// congruent to a seed-dependent phase modulo LatchEvery, for
	// LatchDelay consecutive cycles. 0 disables latch delays.
	LatchEvery uint64
	// LatchDelay is how many cycles each latch-delay burst lasts.
	LatchDelay uint64
}

// maxFaults bounds Config.Faults in a parsed spec: New allocates the whole
// schedule up front, 32 bytes a fault, so this caps it at 2 MiB.
const maxFaults = 1 << 16

// DefaultConfig returns a moderate schedule: 25 faults over the first 120k
// cycles with short latch-delay bursts.
func DefaultConfig() Config {
	return Config{Seed: 1, Faults: 25, Window: 120_000, LatchEvery: 256, LatchDelay: 4}
}

// Parse reads a "-inject" flag value: comma-separated key=value pairs over
// the defaults, e.g. "seed=7,faults=40,window=200000,latch-every=128,
// latch-delay=8". An empty string is an error — injection off is expressed
// by not passing the flag — and so is a fault count above maxFaults.
func Parse(s string) (Config, error) {
	cfg := DefaultConfig()
	if strings.TrimSpace(s) == "" {
		return cfg, fmt.Errorf("inject: empty spec")
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("inject: %q is not key=value", part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("inject: bad value in %q: %v", part, err)
		}
		switch strings.TrimSpace(key) {
		case "seed":
			cfg.Seed = n
		case "faults":
			if n > maxFaults {
				return cfg, fmt.Errorf("inject: faults=%d exceeds the limit of %d", n, maxFaults)
			}
			cfg.Faults = int(n)
		case "window":
			cfg.Window = n
		case "latch-every":
			cfg.LatchEvery = n
		case "latch-delay":
			cfg.LatchDelay = n
		default:
			return cfg, fmt.Errorf("inject: unknown key %q", key)
		}
	}
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	return cfg, nil
}

// String renders the config back into Parse's format (the repro line).
func (c Config) String() string {
	return fmt.Sprintf("seed=%d,faults=%d,window=%d,latch-every=%d,latch-delay=%d",
		c.Seed, c.Faults, c.Window, c.LatchEvery, c.LatchDelay)
}

// Injector implements sim.Injector over a pre-generated, sorted fault
// schedule. Injectors are single-use: construct a fresh one per sim run.
type Injector struct {
	cfg   Config
	sched []sim.Fault
	next  int
	phase uint64
	burst uint64
}

var _ sim.Injector = (*Injector)(nil)

// New derives the full fault schedule from cfg.Seed.
func New(cfg Config) *Injector {
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	rng := cfg.Seed
	sched := make([]sim.Fault, 0, cfg.Faults)
	for i := 0; i < cfg.Faults; i++ {
		sched = append(sched, sim.Fault{
			Cycle: 1 + SplitMix64(&rng)%cfg.Window,
			Kind:  sim.FaultKind(SplitMix64(&rng) % 2),
			CPU:   int(SplitMix64(&rng) % 64),
			Ctx:   int(SplitMix64(&rng) % tls.MaxSubthreads),
		})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Cycle < sched[j].Cycle })
	inj := &Injector{cfg: cfg, sched: sched, burst: cfg.LatchDelay}
	if cfg.LatchEvery > 0 {
		inj.phase = SplitMix64(&rng) % cfg.LatchEvery
	}
	return inj
}

// Next pops the next scheduled fault due at or before now.
func (j *Injector) Next(now uint64) (sim.Fault, bool) {
	if j.next >= len(j.sched) || j.sched[j.next].Cycle > now {
		return sim.Fault{}, false
	}
	f := j.sched[j.next]
	j.next++
	return f, true
}

// LatchDelayed reports whether latch grants are suppressed on this cycle: a
// burst of LatchDelay cycles beginning at each multiple of LatchEvery (plus
// the seed-dependent phase). A pure function of now, so stalled retries and
// fresh acquires agree.
func (j *Injector) LatchDelayed(now uint64) bool {
	if j.cfg.LatchEvery == 0 || j.burst == 0 {
		return false
	}
	return (now+j.phase)%j.cfg.LatchEvery < j.burst
}

// SplitMix64 advances the SplitMix64 generator whose whole state is *x and
// returns the next value: a tiny, well-distributed PRNG, so schedules derive
// from a seed alone. The injection schedule here and the service client's
// retry jitter both draw from it.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
