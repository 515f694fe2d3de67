// Package cluster scales tlsd from one process to a small fleet behind
// the router binary (cmd/tlsrouter):
//
//   - Ring: a bounded-load consistent-hash ring over worker base URLs.
//     Placement is keyed by the job digest, so the same spec always lands
//     on the same worker and its warm cache — the cluster-level analogue
//     of the daemon's content-addressed result cache.
//   - Prober: periodic /healthz probing that ejects dead workers from the
//     ring and readmits them when they recover.
//   - Router: the digest-routing proxy; when a digest's owner fails it
//     ejects the owner from the ring and fails over down it, and the
//     failover worker's own tiers (memory, disk, and its `tlsd -peers`
//     siblings, internal/service) serve a warm digest.
//
// The package depends on internal/service only for the daemon's shared
// HTTP front and vocabulary (spec decoding, correlation rules, the
// /metrics handler); service never imports cluster, and neither does
// cmd/tlsd.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes and bounded load
// (Mirrokni et al.'s "consistent hashing with bounded loads"): a key's
// owner is the first alive node clockwise from the key's point, but a
// node already carrying more than LoadFactor times its fair share of
// in-flight routed requests is skipped, spilling the key to the next
// preference. That keeps placement deterministic and cache-friendly in
// the common case while preventing one hot digest from queueing the
// whole cluster behind a single worker.
//
// Membership changes (SetAlive) only remap keys owned by the affected
// node — the consistent-hashing minimal-movement property the ring tests
// pin — and each transition is counted as a rebalance for /metrics.
type Ring struct {
	vnodes int
	factor float64

	mu         sync.RWMutex
	nodes      map[string]*ringNode
	points     []ringPoint // sorted by hash; includes points of dead nodes
	rebalances uint64
}

type ringNode struct {
	alive bool
	load  int // in-flight routed requests (Route acquired, release pending)
}

type ringPoint struct {
	hash uint64
	node string
}

// NodeInfo is one node's status snapshot, for metrics and health output.
type NodeInfo struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Load  int    `json:"load"`
}

// The ring tlsrouter runs: ringVNodes virtual nodes per worker, and a
// bounded-load slack of ringLoadFactor over a perfectly fair share.
const (
	ringVNodes     = 128
	ringLoadFactor = 1.25
)

// NewRing builds a ring over the worker base URLs (all initially alive).
// vnodes is the number of virtual nodes per worker (0 means ringVNodes);
// loadFactor is the bounded-load slack (below 1 means ringLoadFactor: a
// smaller slack would reject all routes).
func NewRing(workers []string, vnodes int, loadFactor float64) (*Ring, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster ring: no workers")
	}
	if vnodes <= 0 {
		vnodes = ringVNodes
	}
	if loadFactor < 1 {
		loadFactor = ringLoadFactor
	}
	r := &Ring{
		vnodes: vnodes,
		factor: loadFactor,
		nodes:  make(map[string]*ringNode, len(workers)),
	}
	for _, w := range workers {
		if w == "" {
			return nil, fmt.Errorf("cluster ring: empty worker URL")
		}
		if _, dup := r.nodes[w]; dup {
			return nil, fmt.Errorf("cluster ring: duplicate worker %q", w)
		}
		r.nodes[w] = &ringNode{alive: true}
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(w + "#" + strconv.Itoa(i)),
				node: w,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// ringHash maps a string to a point on the ring. SHA-256 (truncated to 64
// bits) matches the digest pipeline's hash and keeps placement stable
// across processes and restarts — no per-process seed.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Preference returns up to n distinct alive nodes in ring-walk order from
// key's point: the owner first, then the successive failover/replica
// candidates. Empty when every node is dead.
func (r *Ring) Preference(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.preferenceLocked(key, n)
}

func (r *Ring) preferenceLocked(key string, n int) []string {
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if r.nodes[p.node].alive {
			out = append(out, p.node)
		}
		if len(seen) == len(r.nodes) {
			break // every node visited; later points only repeat them
		}
	}
	return out
}

// Owner returns key's owner ignoring load: the first alive node on the
// walk. ok is false when the whole ring is dead.
func (r *Ring) Owner(key string) (string, bool) {
	pref := r.Preference(key, 1)
	if len(pref) == 0 {
		return "", false
	}
	return pref[0], true
}

// Route picks the node to carry one routed request for key under the
// bounded-load rule: the first alive node on key's walk whose load after
// admission stays within LoadFactor times the fair share spills to the
// next candidate otherwise. The returned release func MUST be called when
// the request completes; it decrements the node's in-flight load. ok is
// false only when every node is dead.
func (r *Ring) Route(key string) (node string, release func(), ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	alive, total := 0, 0
	for _, n := range r.nodes {
		if n.alive {
			alive++
			total += n.load
		}
	}
	if alive == 0 {
		return "", nil, false
	}
	// Ceil(factor * (total+1) / alive): the CHBL capacity each node may
	// hold once this request is admitted somewhere.
	capacity := int(r.factor * float64(total+1) / float64(alive))
	if float64(capacity) < r.factor*float64(total+1)/float64(alive) {
		capacity++
	}
	if capacity < 1 {
		capacity = 1
	}
	pref := r.preferenceLocked(key, alive)
	if len(pref) == 0 {
		return "", nil, false
	}
	node = pref[0]
	for _, cand := range pref {
		if r.nodes[cand].load+1 <= capacity {
			node = cand
			break
		}
	}
	st := r.nodes[node]
	st.load++
	var once sync.Once
	release = func() {
		once.Do(func() {
			r.mu.Lock()
			st.load--
			r.mu.Unlock()
		})
	}
	return node, release, true
}

// SetAlive marks a node up or down, returning whether the state changed.
// Each change is a rebalance: the node's arc of the keyspace moves to (or
// back from) its successors.
func (r *Ring) SetAlive(url string, alive bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, found := r.nodes[url]
	if !found || n.alive == alive {
		return false
	}
	n.alive = alive
	r.rebalances++
	return true
}

// Alive reports whether the node is currently in the ring (and known).
func (r *Ring) Alive(url string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, found := r.nodes[url]
	return found && n.alive
}

// Nodes returns every configured node's status, sorted by URL.
func (r *Ring) Nodes() []NodeInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeInfo, 0, len(r.nodes))
	for url, n := range r.nodes {
		out = append(out, NodeInfo{URL: url, Alive: n.alive, Load: n.load})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Rebalances counts membership transitions since construction.
func (r *Ring) Rebalances() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rebalances
}
