package cluster

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"time"

	"subthreads/internal/service"
)

// RemoteGroup is the cross-node cache-fetch path of `tlsd -peers`: before
// recomputing a digest it already missed locally, a daemon asks its sibling
// replicas' caches via the cheap GET /v1/cache/{digest} endpoint. Every
// sibling link carries its own circuit breaker (the same three-state
// service.Breaker that guards the disk CAS tier), so a sick or slow replica
// costs a few probes and is then skipped for a cooldown — the fetch path
// degrades to recompute, never to an outage.
type RemoteGroup struct {
	peers    []string
	hc       *http.Client
	breakers map[string]*service.Breaker
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
		breakers: make(map[string]*service.Breaker, len(peers)),
	}
	for _, p := range g.peers {
		peer := p
		// Slow-call detection is disabled (the HTTP client timeout already
		// bounds a probe); only transport errors and 5xx count as failures.
		b := service.NewBreaker(peerBreakerThreshold, peerBreakerCooldown, peerTimeout*2)
		if log != nil {
			b.OnChange(func(from, to string) {
				log.LogAttrs(context.Background(), slog.LevelWarn, "peer breaker transition",
					slog.String("component", "remote-cache"), slog.String("peer", peer),
					slog.String("from", from), slog.String("to", to))
			})
		}
		g.breakers[peer] = b
	}
	return g
}

// Fetch asks siblings for digest's cached result, in a deterministic
// digest-rotated order (so concurrent fetches of different digests spread
// their first probes across the fleet), and returns the first hit's body
// and the answering peer, with the misses and failures of the siblings it
// asked before. Body is nil when every sibling missed, failed, or was
// breaker-skipped. Never computes anything.
func (g *RemoteGroup) Fetch(ctx context.Context, digest string) service.RemoteResult {
	var res service.RemoteResult
	n := len(g.peers)
	if n == 0 {
		return res
	}
	start := int(ringHash(digest) % uint64(n))
	for i := 0; i < n; i++ {
		peer := g.peers[(start+i)%n]
		if !g.breakers[peer].Allow() {
			continue
		}
		switch body, outcome := g.fetchOne(ctx, peer, digest); outcome {
		case fetchHit:
			res.Body, res.From = body, peer
			return res
		case fetchMiss:
			res.Misses++
		default:
			res.Failures++
		}
		if ctx.Err() != nil {
			return res
		}
	}
	return res
}

// The outcomes of one sibling fetch.
const (
	fetchHit    = iota
	fetchMiss   // 404: the sibling holds no result for the digest
	fetchFailed // transport error, 5xx or other unexpected status, empty body
)

// fetchOne probes one sibling, reporting its outcome to the link's breaker
// and to the caller; body is set only for a hit.
func (g *RemoteGroup) fetchOne(ctx context.Context, peer, digest string) (body []byte, outcome int) {
	start := time.Now()
	b := g.breakers[peer]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+digest, nil)
	if err != nil {
		b.Observe("fetch", time.Since(start), true)
		return nil, fetchFailed
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		b.Observe("fetch", time.Since(start), true)
		return nil, fetchFailed
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil || len(data) == 0 {
			b.Observe("fetch", time.Since(start), true)
			return nil, fetchFailed
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
		return nil, fetchFailed
	}
}
