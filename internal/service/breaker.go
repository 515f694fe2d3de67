package service

import (
	"sync"
	"time"
)

// Breaker states. The classic three-state machine: closed (dependency
// trusted), open (dependency bypassed — the caller degrades), half-open (one
// probe in flight deciding which way to go).
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// Breaker is a hystrix-style circuit breaker around one fallible dependency.
// The daemon wraps its disk CAS tier in one (an operation counts as a
// failure if it errors or exceeds slowCall) and internal/cluster wraps each
// inter-node link in its own, so a sick replica degrades its callers to
// recompute instead of dragging every request through a dead socket. It
// trips open after threshold consecutive failures; while open, Allow()
// short-circuits callers. After cooldown, one probe is let through
// half-open: its outcome closes or re-opens the circuit.
//
// The zero threshold/cooldown/slowCall values are replaced by defaults in
// NewBreaker. All methods are safe on a nil Breaker (Allow always true) so
// callers without a breaker never branch.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	slowCall  time.Duration
	now       func() time.Time      // test seam
	onChange  func(from, to string) // transition log hook; may be nil

	mu       sync.Mutex
	state    string
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // half-open: the single probe slot is taken
	opens    uint64
	shorts   uint64
}

// Breaker defaults: five consecutive failures open the circuit, a probe is
// attempted after ten seconds, and a call slower than 250ms counts as a
// failure even when it succeeds.
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 10 * time.Second
	defaultBreakerSlowCall  = 250 * time.Millisecond
)

// NewBreaker builds a breaker. Zero arguments take the package defaults; a
// caller whose operations are legitimately slow (e.g. a proxied simulation)
// should pass a large slowCall so only real errors count.
func NewBreaker(threshold int, cooldown, slowCall time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	if slowCall <= 0 {
		slowCall = defaultBreakerSlowCall
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		slowCall:  slowCall,
		now:       time.Now,
		state:     breakerClosed,
	}
}

// OnChange registers a state-transition hook (for logging); it is called
// with the breaker's lock held, so it must not re-enter the breaker.
func (b *Breaker) OnChange(fn func(from, to string)) {
	if b != nil {
		b.onChange = fn
	}
}

// Allow reports whether an operation should be attempted. false means
// short-circuit: skip the dependency and degrade.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.shorts++
			return false
		}
		b.setStateLocked(breakerHalfOpen)
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			b.shorts++
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// Observe feeds one operation outcome into the state machine. The daemon
// wires it as the cas.Store observer (so it sees the build cache's disk
// traffic too — any tier's misbehavior is evidence about the same disk);
// the cluster layer calls it after each inter-node request. The first
// argument names the operation and exists to satisfy the store's observer
// signature; the state machine ignores it.
func (b *Breaker) Observe(_ string, d time.Duration, failed bool) {
	if b == nil {
		return
	}
	bad := failed || d >= b.slowCall
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if !bad {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.tripLocked()
		}
	case breakerHalfOpen:
		b.probing = false
		if bad {
			b.tripLocked()
			return
		}
		b.setStateLocked(breakerClosed)
		b.fails = 0
	case breakerOpen:
		// A straggler from before the trip; the probe decides, not this.
	}
}

// tripLocked opens the circuit. Caller holds mu.
func (b *Breaker) tripLocked() {
	b.setStateLocked(breakerOpen)
	b.openedAt = b.now()
	b.opens++
	b.fails = 0
	b.probing = false
}

// setStateLocked transitions and reports. Caller holds mu.
func (b *Breaker) setStateLocked(to string) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// BreakerStats is the /metrics view of a breaker. Its HELP texts describe
// the daemon's disk-tier breaker; a section that renders another breaker
// overrides them.
type BreakerStats struct {
	State               string `json:"state" prom:"state{state=closed|open|half-open} Disk CAS tier circuit-breaker state (one-hot across the state label)."`
	ConsecutiveFailures int    `json:"consecutive_failures" prom:"-"`
	Opens               uint64 `json:"opens" prom:"opens_total Times the disk CAS tier circuit breaker tripped open."`
	ShortCircuits       uint64 `json:"short_circuits" prom:"short_circuits_total Result-tier disk operations skipped while the breaker was open."`
}

// Stats snapshots the breaker. Safe on nil (a permanently closed circuit).
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: breakerClosed}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:               b.state,
		ConsecutiveFailures: b.fails,
		Opens:               b.opens,
		ShortCircuits:       b.shorts,
	}
}
