package service

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"log/slog"
	"net/http"
	"time"
)

// peer is one link of the `tlsd -peers` tier: a sibling replica's base URL
// and the link's own circuit breaker (the three-state Breaker that also
// guards the disk tier), so a sick or slow sibling costs a few probes and
// is then skipped for a cooldown — the lookup degrades to recompute, never
// to an outage.
type peer struct {
	url     string
	breaker *Breaker
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

// peerClient carries every sibling probe.
var peerClient = &http.Client{Timeout: peerTimeout}

// newPeers builds one link per sibling URL, logging each breaker's
// transitions.
func (s *Server) newPeers(urls []string) []peer {
	peers := make([]peer, len(urls))
	for i, u := range urls {
		// Slow-call detection is disabled (the client timeout already
		// bounds a probe); only the failures fetch names count.
		b := NewBreaker(peerBreakerThreshold, peerBreakerCooldown, peerTimeout*2)
		b.OnChange(func(from, to string) {
			s.jlog(slog.LevelWarn, "peer breaker transition",
				slog.String("component", "remote-cache"), slog.String("peer", u),
				slog.String("from", from), slog.String("to", to))
		})
		peers[i] = peer{url: u, breaker: b}
	}
	return peers
}

// fetchPeers asks the siblings for digest's cached result, in a
// deterministic digest-rotated order (so concurrent fetches of different
// digests spread their first probes across the fleet), and returns the
// first hit's body and the sibling that served it; body is nil when every
// sibling missed, failed or was breaker-skipped. It counts the siblings it
// asked before in CacheRemoteMisses (404: no result for the digest) and
// CacheRemoteFailures (no usable answer); a breaker-skipped sibling counts
// in neither. Never computes anything.
func (s *Server) fetchPeers(digest string) (body []byte, from string) {
	n := len(s.peers)
	if n == 0 {
		return nil, ""
	}
	sum := sha256.Sum256([]byte(digest))
	first := int(binary.BigEndian.Uint64(sum[:8]) % uint64(n))
	var misses, failures uint64
	for i := 0; i < n && body == nil; i++ {
		p := s.peers[(first+i)%n]
		if !p.breaker.Allow() {
			continue
		}
		switch b, outcome := p.fetch(digest); outcome {
		case fetchHit:
			body, from = b, p.url
		case fetchMiss:
			misses++
		default:
			failures++
		}
	}
	s.mu.Lock()
	s.counters.CacheRemoteMisses += misses
	s.counters.CacheRemoteFailures += failures
	s.mu.Unlock()
	return body, from
}

// The outcomes of one sibling fetch.
const (
	fetchHit    = iota
	fetchMiss   // 404: the sibling holds no result for the digest
	fetchFailed // transport error, 5xx or other unexpected status, a 200 that is no result
)

// fetch probes one sibling, reporting its outcome to the link's breaker and
// to the caller; body is set only for a hit. A hit is a 200 with a body
// whose X-Job-Digest names the digest asked for, as the probe endpoint
// answers: any other 200 is not a result, so it fails and trips the link
// like a 5xx does. A 404 is a healthy answer.
func (p peer) fetch(digest string) (body []byte, outcome int) {
	start := time.Now()
	resp, err := peerClient.Get(p.url + "/v1/cache/" + digest)
	if err != nil {
		p.breaker.Observe("fetch", time.Since(start), true)
		return nil, fetchFailed
	}
	defer resp.Body.Close()
	outcome = fetchFailed
	switch {
	case resp.StatusCode == http.StatusNotFound:
		outcome = fetchMiss
	case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Job-Digest") == digest:
		if b, err := io.ReadAll(resp.Body); err == nil && len(b) > 0 {
			body, outcome = b, fetchHit
		}
	}
	failed := outcome == fetchFailed && (resp.StatusCode == http.StatusOK || resp.StatusCode >= 500)
	p.breaker.Observe("fetch", time.Since(start), failed)
	return body, outcome
}
