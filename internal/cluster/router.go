package cluster

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"subthreads/internal/service"
	"subthreads/internal/telemetry"
	"subthreads/internal/version"
)

// Router fronts a fleet of tlsd workers with the daemon's own HTTP
// surface: it resolves each submitted spec to its content digest, routes
// the request to the digest's owner on the ring, and proxies the
// response back verbatim — so a client cannot tell one tlsd from a
// cluster of them, and result bytes stay byte-identical to
// `tlssim -json`.
//
// A worker's health is the ring's alive bit, written by the prober and
// by a proxy failure. When the owner is down (probe-ejected, or failing
// right now), a submission fails over to the next preference node, whose
// own tiers (memory, disk, then its `tlsd -peers` siblings) serve a warm
// digest without a recompute; only when no node answers is it a 502. A
// client that gives up first fails no worker.
type Router struct {
	ring   *Ring
	prober *Prober
	hc     *http.Client
	log    *slog.Logger
	mux    *http.ServeMux

	started time.Time

	mu          sync.Mutex
	jobOwner    map[string]string // job ID -> worker base URL
	jobOrder    []string          // FIFO eviction for jobOwner
	perNode     map[string]*NodeCounters
	counters    RouterCounters
	proxyMicros telemetry.Histogram
}

// maxJobOwners bounds the job->owner map; beyond it the oldest routes are
// forgotten (their jobs have long since been served or expired).
const maxJobOwners = 1 << 16

// Options configures a Router.
type Options struct {
	// Workers are the tlsd base URLs (no trailing slash); required.
	Workers []string
	// Logger receives routing, probing and access lines; nil disables
	// logging.
	Logger *slog.Logger
}

// NewRouter builds a router over the worker fleet. Call Start to begin
// health probing and Close to stop it.
func NewRouter(opts Options) (*Router, error) {
	ring, err := NewRing(opts.Workers, 0, 0)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring: ring,
		// No client timeout: a ?wait=1 submission legitimately holds the
		// connection for the whole simulation. Per-request contexts still
		// cancel abandoned proxies.
		hc:       &http.Client{},
		log:      opts.Logger,
		started:  time.Now(),
		jobOwner: make(map[string]string),
		perNode:  make(map[string]*NodeCounters, len(opts.Workers)),
	}
	rt.prober = NewProber(ring, opts.Logger)
	for _, w := range opts.Workers {
		rt.perNode[w] = &NodeCounters{}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobProxy)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleJobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJobProxy)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", service.MetricsHandler("tlsrouter", "router", rt.MetricsSnapshot))
	rt.mux = mux
	return rt, nil
}

// Start begins health probing (the first round runs synchronously in the
// probe goroutine, so readiness converges within one probe timeout).
func (rt *Router) Start() { rt.prober.Start() }

// Close stops health probing.
func (rt *Router) Close() { rt.prober.Stop() }

// Ring exposes the routing ring (tests pin placement through it).
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler is the router's HTTP surface behind the daemon's own front:
// the same correlation contract and the same access-log line, tagged
// component=router.
func (rt *Router) Handler() http.Handler {
	log := rt.log
	if log != nil {
		log = log.With(slog.String("component", "router"))
	}
	return service.Observed(log, rt.mux)
}

// handleSubmit resolves the spec to its digest, routes it, and proxies.
// When the owner cannot answer, the submission fails over down the
// digest's preference list, then gets a 502.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxSpecBytes))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := service.DecodeSpec(bytes.NewReader(payload))
	if err != nil {
		// Same shape and status the daemon would answer, so clients see
		// one contract whether or not a router is in front.
		service.WriteError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	res, err := spec.Resolve()
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	digest := res.Digest

	node, release, ok := rt.ring.Route(digest)
	if !ok {
		rt.mu.Lock()
		rt.counters.Unroutable++
		rt.mu.Unlock()
		service.WriteError(w, http.StatusServiceUnavailable, "no alive workers")
		return
	}
	defer release()
	rt.mu.Lock()
	rt.counters.JobsRouted++
	rt.mu.Unlock()

	if done := rt.proxySubmit(w, r, node, payload); done {
		return
	}
	rt.eject(r, node)

	// Failover: the next preference node serves the digest from its own
	// tiers (a warm one without a recompute) or recomputes it.
	for _, cand := range rt.ring.Preference(digest, len(rt.perNode)) {
		if cand == node {
			continue
		}
		rt.mu.Lock()
		rt.counters.Failovers++
		rt.mu.Unlock()
		if rt.log != nil {
			rt.log.LogAttrs(r.Context(), slog.LevelWarn, "submission failed over",
				slog.String("component", "router"), slog.String("digest", digest),
				slog.String("from", node), slog.String("to", cand),
				slog.String("correlation_id", service.CorrelationFrom(r.Context())))
		}
		if done := rt.proxySubmit(w, r, cand, payload); done {
			return
		}
		rt.eject(r, cand)
	}
	service.WriteError(w, http.StatusBadGateway, "no worker could serve the submission")
}

// eject takes node out of the ring after a transport failure mid-route,
// rather than waiting for the prober to notice.
func (rt *Router) eject(r *http.Request, node string) {
	if rt.ring.SetAlive(node, false) && rt.log != nil {
		rt.log.LogAttrs(r.Context(), slog.LevelWarn, "worker ejected on proxy failure",
			slog.String("component", "router"), slog.String("node", node),
			slog.String("correlation_id", service.CorrelationFrom(r.Context())))
	}
}

// proxySubmit forwards the submission to node. It reports done=true when
// a response (any status) was relayed to the client or the client has
// gone, and false on a transport failure before any byte was written — the
// caller may then fail the request over elsewhere.
func (rt *Router) proxySubmit(w http.ResponseWriter, r *http.Request, node string, payload []byte) bool {
	url := node + "/v1/jobs"
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.CorrelationHeader, service.CorrelationFrom(r.Context()))
	return rt.relay(w, req, node, true)
}

// handleJobProxy forwards a job-scoped request (status, cancel, result,
// SSE events) to the worker that owns the job ID.
func (rt *Router) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	node, ok := rt.jobOwner[id]
	rt.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	url := node + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, nil)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	req.Header.Set(service.CorrelationHeader, service.CorrelationFrom(r.Context()))
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	if !rt.relay(w, req, node, false) {
		service.WriteError(w, http.StatusBadGateway, "worker %s unreachable", node)
	}
}

// relay performs the proxied request and copies the response through,
// streaming (with per-chunk flush) so SSE works. It counts the node's
// requests and transport errors, records job ownership from X-Job-Id, and
// stamps X-Served-By. done=false only on a transport failure with nothing
// written yet. A request whose own context is done (the client gave up or
// went away) is done as well: its failure says nothing about the worker,
// so it counts no error and leaves nothing to eject or fail over.
func (rt *Router) relay(w http.ResponseWriter, req *http.Request, node string, recordOwner bool) bool {
	start := time.Now()
	resp, err := rt.hc.Do(req)
	gone := err != nil && req.Context().Err() != nil
	rt.mu.Lock()
	c := rt.perNode[node]
	c.Requests++
	if err != nil && !gone {
		c.Errors++
	}
	rt.mu.Unlock()
	if err != nil {
		return gone
	}
	defer resp.Body.Close()

	if recordOwner {
		if id := resp.Header.Get("X-Job-Id"); id != "" {
			rt.recordOwner(id, node)
		}
	}
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop(k) || k == service.CorrelationHeader {
			continue // the middleware already stamped the router's corr echo
		}
		h[k] = vs
	}
	h.Set("X-Served-By", node)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
	rt.mu.Lock()
	rt.proxyMicros.Observe(uint64(time.Since(start).Microseconds()))
	rt.mu.Unlock()
	return true
}

func (rt *Router) recordOwner(id, node string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, seen := rt.jobOwner[id]; !seen {
		rt.jobOrder = append(rt.jobOrder, id)
	}
	rt.jobOwner[id] = node
	for len(rt.jobOrder) > maxJobOwners {
		delete(rt.jobOwner, rt.jobOrder[0])
		rt.jobOrder = rt.jobOrder[1:]
	}
}

// flushCopy copies body to w, flushing after every chunk so streamed
// responses (SSE events) reach the client as they happen.
func flushCopy(w http.ResponseWriter, body io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// hopByHop reports headers that must not be forwarded by a proxy.
func hopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// routerHealth is the /healthz document.
type routerHealth struct {
	Status  string       `json:"status"`
	Version version.Info `json:"version"`
	Nodes   []NodeInfo   `json:"nodes"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, routerHealth{
		Status:  "ok",
		Version: version.Get(),
		Nodes:   rt.ring.Nodes(),
	})
}

// handleReadyz is ready when at least one worker is alive.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	alive := 0
	for _, n := range rt.ring.Nodes() {
		if n.Alive {
			alive++
		}
	}
	if alive == 0 {
		service.WriteError(w, http.StatusServiceUnavailable, "no alive workers")
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "alive_workers": alive})
}

// NodeCounters are one worker link's proxy outcomes.
type NodeCounters struct {
	Requests uint64 `json:"requests" prom:"requests_total Requests proxied to the worker."`
	Errors   uint64 `json:"errors" prom:"errors_total Proxy transport failures against the worker."`
}

// NodeMetrics is one worker's view in the router metrics document.
type NodeMetrics struct {
	URL   string `json:"url" prom:"{node}"`
	Alive bool   `json:"alive" prom:"alive Whether the worker is in the ring (1) or ejected (0)."`
	Load  int    `json:"load" prom:"load In-flight routed submissions on the worker."`
	NodeCounters
}

// RouterCounters are the router's submission outcomes. Router keeps them
// under its lock and RouterMetrics embeds a copy.
type RouterCounters struct {
	JobsRouted uint64 `json:"jobs_routed" prom:"jobs_routed_total Submissions routed by digest."`
	Failovers  uint64 `json:"failovers" prom:"failovers_total Submissions sent to a failover worker after the owner failed."`
	Unroutable uint64 `json:"unroutable" prom:"unroutable_total Submissions rejected because no worker was alive."`
}

// RouterMetrics is the /metrics document. Each field's json tag names it in
// the JSON form and its prom tag in the Prometheus form
// (telemetry.PromWriter.Struct); NodeCount and NodesAlive exist in the
// Prometheus form only.
type RouterMetrics struct {
	UptimeSeconds  float64       `json:"uptime_seconds" prom:"uptime_seconds Seconds since the router started."`
	NodeCount      int           `json:"-" prom:"nodes Workers configured in the ring."`
	NodesAlive     int           `json:"-" prom:"nodes_alive Workers currently alive in the ring."`
	Nodes          []NodeMetrics `json:"nodes" prom:"node_"`
	RingRebalances uint64        `json:"ring_rebalances" prom:"ring_rebalances_total Ring membership transitions (ejections plus readmissions)."`
	Probes         uint64        `json:"probes" prom:"probes_total Health probes sent to workers."`
	ProbeFailures  uint64        `json:"probe_failures" prom:"probe_failures_total Health probes that failed."`
	RouterCounters
	ProxyLatencyMicros telemetry.HistogramSnapshot `json:"proxy_latency_micros" prom:"proxy_latency_microseconds End-to-end latency of proxied requests."`
}

// MetricsSnapshot assembles the router metrics document.
func (rt *Router) MetricsSnapshot() RouterMetrics {
	nodes := rt.ring.Nodes()
	rt.mu.Lock()
	m := RouterMetrics{
		UptimeSeconds:      time.Since(rt.started).Seconds(),
		NodeCount:          len(nodes),
		RingRebalances:     rt.ring.Rebalances(),
		Probes:             rt.prober.Probes(),
		ProbeFailures:      rt.prober.Failures(),
		RouterCounters:     rt.counters,
		ProxyLatencyMicros: rt.proxyMicros.Snapshot(),
	}
	for _, n := range nodes {
		if n.Alive {
			m.NodesAlive++
		}
		m.Nodes = append(m.Nodes, NodeMetrics{
			URL: n.URL, Alive: n.Alive, Load: n.Load,
			NodeCounters: *rt.perNode[n.URL],
		})
	}
	rt.mu.Unlock()
	return m
}
