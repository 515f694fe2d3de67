package cluster

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"subthreads/internal/service"
)

// RemoteGroup is the cross-node cache-fetch path: before recomputing a
// digest it already missed locally, a daemon (or the router, when the
// digest's owner is down) asks sibling replicas' caches via the cheap
// GET /v1/cache/{digest} endpoint. Every sibling link carries its own
// circuit breaker (the same three-state service.Breaker that guards the
// disk CAS tier), so a sick or slow replica costs a few probes and is
// then skipped for a cooldown — the fetch path degrades to recompute,
// never to an outage.
type RemoteGroup struct {
	peers []string
	hc    *http.Client
	log   *slog.Logger

	mu       sync.Mutex
	breakers map[string]*service.Breaker
	stats    map[string]*PeerCounters
}

// PeerCounters are one sibling link's lifetime fetch outcomes.
type PeerCounters struct {
	Fetches uint64 `json:"fetches" prom:"fetches_total Sibling cache probes sent."`
	Hits    uint64 `json:"hits" prom:"fetch_hits_total Sibling cache probes that hit."`
	Misses  uint64 `json:"misses" prom:"-"`
	Errors  uint64 `json:"errors" prom:"fetch_errors_total Sibling cache probes that failed."`
}

// PeerStats is one sibling link's lifetime counters plus breaker state.
type PeerStats struct {
	URL string `json:"url" prom:"{node}"`
	PeerCounters
	Breaker service.BreakerStats `json:"breaker" prom:"-"`
}

// Each sibling probe is bounded by peerTimeout: a cache read plus a LAN
// round trip, with slack for a result body of a few hundred KB. A link's
// breaker trips after peerBreakerThreshold consecutive failures (trip fast:
// the fallback is a local recompute, not an error) and rests for
// peerBreakerCooldown before a half-open trial.
const (
	peerTimeout          = 2 * time.Second
	peerBreakerThreshold = 3
	peerBreakerCooldown  = 5 * time.Second
)

// NewRemoteGroup builds the fetch path over the sibling base URLs. log
// receives per-link breaker transitions; nil disables logging.
func NewRemoteGroup(peers []string, log *slog.Logger) *RemoteGroup {
	g := &RemoteGroup{
		peers:    append([]string(nil), peers...),
		hc:       &http.Client{Timeout: peerTimeout},
		log:      log,
		breakers: make(map[string]*service.Breaker, len(peers)),
		stats:    make(map[string]*PeerCounters, len(peers)),
	}
	for _, p := range g.peers {
		peer := p
		// Slow-call detection is disabled (the HTTP client timeout already
		// bounds a probe); only transport errors and 5xx count as failures.
		b := service.NewBreaker(peerBreakerThreshold, peerBreakerCooldown, peerTimeout*2)
		if g.log != nil {
			b.OnChange(func(from, to string) {
				g.log.LogAttrs(context.Background(), slog.LevelWarn, "peer breaker transition",
					slog.String("component", "remote-cache"), slog.String("peer", peer),
					slog.String("from", from), slog.String("to", to))
			})
		}
		g.breakers[peer] = b
		g.stats[peer] = &PeerCounters{}
	}
	return g
}

// Fetch asks siblings for digest's cached result, in a deterministic
// digest-rotated order (so concurrent fetches of different digests spread
// their first probes across the fleet) with any `preferred` URLs tried
// first — the router passes the ring's preference list so the digest's
// replica is asked before random siblings. Returns the first hit's body
// and the answering peer; ok is false when every sibling missed, failed,
// or was breaker-skipped. Never computes anything.
func (g *RemoteGroup) Fetch(ctx context.Context, digest string, preferred ...string) (body []byte, from string, ok bool) {
	if len(g.peers) == 0 {
		return nil, "", false
	}
	order := g.order(digest, preferred)
	for _, peer := range order {
		b := g.breakers[peer]
		if !b.Allow() {
			continue
		}
		body, outcome := g.fetchOne(ctx, peer, digest)
		g.mu.Lock()
		c := g.stats[peer]
		c.Fetches++
		switch outcome {
		case fetchHit:
			c.Hits++
		case fetchMiss:
			c.Misses++
		default:
			c.Errors++
		}
		g.mu.Unlock()
		if outcome == fetchHit {
			return body, peer, true
		}
		if ctx.Err() != nil {
			return nil, "", false
		}
	}
	return nil, "", false
}

type fetchOutcome int

const (
	fetchHit fetchOutcome = iota
	fetchMiss
	fetchErr
)

func (g *RemoteGroup) fetchOne(ctx context.Context, peer, digest string) ([]byte, fetchOutcome) {
	start := time.Now()
	b := g.breakers[peer]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+digest, nil)
	if err != nil {
		b.Observe("fetch", time.Since(start), true)
		return nil, fetchErr
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		b.Observe("fetch", time.Since(start), true)
		return nil, fetchErr
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil || len(data) == 0 {
			b.Observe("fetch", time.Since(start), true)
			return nil, fetchErr
		}
		b.Observe("fetch", time.Since(start), false)
		return data, fetchHit
	case resp.StatusCode == http.StatusNotFound:
		// A miss is a healthy answer: the sibling is fine, it just does
		// not have the digest. Only transport errors and 5xx trip the link.
		b.Observe("fetch", time.Since(start), false)
		return nil, fetchMiss
	default:
		b.Observe("fetch", time.Since(start), resp.StatusCode >= 500)
		return nil, fetchErr
	}
}

// order returns the probe order: preferred URLs (that are configured
// peers) first, then the remaining peers rotated by the digest's hash.
func (g *RemoteGroup) order(digest string, preferred []string) []string {
	isPeer := make(map[string]bool, len(g.peers))
	for _, p := range g.peers {
		isPeer[p] = true
	}
	out := make([]string, 0, len(g.peers))
	taken := make(map[string]bool, len(g.peers))
	for _, p := range preferred {
		if isPeer[p] && !taken[p] {
			out = append(out, p)
			taken[p] = true
		}
	}
	start := int(ringHash(digest) % uint64(len(g.peers)))
	for i := 0; i < len(g.peers); i++ {
		p := g.peers[(start+i)%len(g.peers)]
		if !taken[p] {
			out = append(out, p)
			taken[p] = true
		}
	}
	return out
}

// Stats snapshots every sibling link, sorted by URL.
func (g *RemoteGroup) Stats() []PeerStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]PeerStats, 0, len(g.peers))
	for _, p := range g.peers {
		c := g.stats[p]
		out = append(out, PeerStats{URL: p, PeerCounters: *c, Breaker: g.breakers[p].Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
