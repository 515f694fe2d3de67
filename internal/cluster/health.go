package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Prober keeps the ring's membership honest: every probeInterval it GETs
// each configured worker's /healthz (dead or alive — dead nodes keep being
// probed so they are readmitted the moment they recover). A worker is
// ejected after probeThreshold consecutive failures — one slow scrape
// should not trigger a rebalance — and readmitted on the first success,
// because a recovering worker's warm disk cache is exactly what the ring
// wants back as soon as possible.
type Prober struct {
	ring *Ring
	hc   *http.Client
	log  *slog.Logger

	probes   atomic.Uint64
	failures atomic.Uint64

	mu    sync.Mutex
	fails map[string]int // consecutive failures per node

	stop chan struct{}
	done chan struct{}
}

// A probe round runs every probeInterval, each probe is bounded by
// probeTimeout, and probeThreshold consecutive failures eject a worker.
const (
	probeInterval  = 2 * time.Second
	probeTimeout   = time.Second
	probeThreshold = 3
)

// NewProber builds a prober over the ring's configured nodes. log receives
// ejection and readmission lines; nil disables logging.
func NewProber(ring *Ring, log *slog.Logger) *Prober {
	return &Prober{
		ring:  ring,
		hc:    &http.Client{Timeout: probeTimeout},
		log:   log,
		fails: make(map[string]int),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the probe loop. The first round runs immediately so a
// router booted against a half-dead fleet converges before its first
// routed request.
func (p *Prober) Start() {
	go func() {
		defer close(p.done)
		p.ProbeOnce()
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.ProbeOnce()
			}
		}
	}()
}

// Stop halts the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	close(p.stop)
	<-p.done
}

// ProbeOnce probes every configured node once, in parallel, and applies
// eject/readmit transitions. Exported so tests and the router's startup
// path can force a round without waiting for the ticker.
func (p *Prober) ProbeOnce() {
	nodes := p.ring.Nodes()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			p.probe(url)
		}(n.URL)
	}
	wg.Wait()
}

// Probes counts individual probe requests; Failures counts failed ones.
func (p *Prober) Probes() uint64   { return p.probes.Load() }
func (p *Prober) Failures() uint64 { return p.failures.Load() }

func (p *Prober) probe(url string) {
	p.probes.Add(1)
	healthy := false
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url+"/healthz", nil)
	if err == nil {
		resp, rerr := p.hc.Do(req)
		if rerr == nil {
			// Any response at all means the process is up; /healthz only
			// reports non-200 when the daemon itself says it is unwell.
			healthy = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
	}
	if healthy {
		p.mu.Lock()
		p.fails[url] = 0
		p.mu.Unlock()
		if p.ring.SetAlive(url, true) && p.log != nil {
			p.log.LogAttrs(context.Background(), slog.LevelInfo, "worker readmitted",
				slog.String("component", "prober"), slog.String("node", url))
		}
		return
	}
	p.failures.Add(1)
	p.mu.Lock()
	p.fails[url]++
	eject := p.fails[url] >= probeThreshold
	n := p.fails[url]
	p.mu.Unlock()
	if eject {
		if p.ring.SetAlive(url, false) && p.log != nil {
			p.log.LogAttrs(context.Background(), slog.LevelWarn, "worker ejected",
				slog.String("component", "prober"), slog.String("node", url),
				slog.Int("consecutive_failures", n))
		}
	}
}
