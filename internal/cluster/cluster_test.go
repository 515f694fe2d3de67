package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subthreads/internal/inject"
	"subthreads/internal/report"
	"subthreads/internal/service"
	"subthreads/internal/sim"
	"subthreads/internal/telemetry"
	"subthreads/internal/workload"
)

// renderExpected reproduces cmd/tlssim's -json pipeline for a spec — the
// pin that a routed or failed-over result is byte-identical to
// what the CLI prints (same helper the service e2e uses).
func renderExpected(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	cfg := r.Cfg
	if r.Inject != nil {
		cfg.Inject = inject.New(*r.Inject)
	}
	seqRes, _ := workload.Run(r.Spec, workload.Sequential)
	built := workload.Build(r.Spec, r.Exp.SequentialSoftware())
	res := sim.Run(cfg, built.Program)
	run := report.BuildRun(report.RunParams{
		Benchmark:  r.Spec.Bench.String(),
		Experiment: r.Exp.String(),
		CPUs:       cfg.CPUs,
		Subthreads: cfg.TLS.SubthreadsPerEpoch,
		Spacing:    cfg.SubthreadSpacing,
		Epochs:     built.Stats.Epochs,
		Coverage:   built.Stats.Coverage,
	}, res, seqRes)
	var buf bytes.Buffer
	if err := report.WriteRun(&buf, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	return buf.Bytes()
}

// testFleet is a 3-worker in-process cluster: each worker is a real
// service.Server behind httptest, wired to its siblings' caches through
// RemoteFetch exactly as `tlsd -peers` would wire it.
type testFleet struct {
	servers []*service.Server
	ts      []*httptest.Server
	urls    []string
	groups  []atomic.Pointer[RemoteGroup] // late-bound: URLs exist only after httptest starts
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{groups: make([]atomic.Pointer[RemoteGroup], n)}
	for i := 0; i < n; i++ {
		idx := i
		s := service.New(service.Options{
			Workers:    2,
			QueueDepth: 16,
			RemoteFetch: func(ctx context.Context, digest string) service.RemoteResult {
				g := f.groups[idx].Load()
				if g == nil {
					return service.RemoteResult{}
				}
				return g.Fetch(ctx, digest)
			},
		})
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, f.urls[j])
			}
		}
		f.groups[i].Store(NewRemoteGroup(peers, nil))
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.ts[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			if err := f.servers[i].Shutdown(ctx); err != nil {
				t.Errorf("worker %d Shutdown: %v", i, err)
			}
			cancel()
		}
	})
	return f
}

// specOwnedBy searches seed-space for a tiny spec of bench whose digest the
// ring places on the given worker, so each scenario can target a known
// owner.
func specOwnedBy(t *testing.T, ring *Ring, owner, bench string) service.JobSpec {
	t.Helper()
	for s := int64(0); s < 256; s++ {
		warmup := 1
		seed := 100 + s
		spec := service.JobSpec{Benchmark: bench, Txns: 2, Warmup: &warmup, Seed: &seed}
		if got, _ := ring.Owner(digestOf(t, spec)); got == owner {
			return spec
		}
	}
	t.Fatalf("no %s spec found owned by %s in 256 seeds", bench, owner)
	return service.JobSpec{}
}

func digestOf(t *testing.T, spec service.JobSpec) string {
	t.Helper()
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return r.Digest
}

// sum adds one counter over every worker's metrics.
func (f *testFleet) sum(counter func(service.Metrics) uint64) (n uint64) {
	for _, s := range f.servers {
		n += counter(s.MetricsSnapshot())
	}
	return n
}

func cacheMisses(m service.Metrics) uint64 { return m.CacheMisses }

func postVia(t *testing.T, base string, spec service.JobSpec, corr string) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs?wait=1", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if corr != "" {
		req.Header.Set(service.CorrelationHeader, corr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

// TestClusterEndToEnd drives a 3-worker fleet behind a router through the
// scenarios the cluster design promises: digest-stable routing with
// byte-identical results, the worker-level remote cache tier, failover to
// a worker whose own tiers serve the digest warm when its owner dies, and
// failover recompute when no replica has the bytes.
func TestClusterEndToEnd(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// --- Scenario 1: routed submission, byte-identity, correlation echo.
	specA := specOwnedBy(t, rt.Ring(), fleet.urls[0], "NEW ORDER")
	wantA := renderExpected(t, specA)
	resp := postVia(t, rts.URL, specA, "cluster-e2e-routed")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Served-By"); got != fleet.urls[0] {
		t.Fatalf("X-Served-By = %q, want owner %q", got, fleet.urls[0])
	}
	if got := resp.Header.Get(service.CorrelationHeader); got != "cluster-e2e-routed" {
		t.Fatalf("correlation echo = %q, want cluster-e2e-routed", got)
	}
	if !bytes.Equal(body, wantA) {
		t.Fatalf("routed result differs from tlssim -json bytes (%d vs %d bytes)", len(body), len(wantA))
	}

	// Resubmit: a memory hit on the same owner, same bytes.
	resp = postVia(t, rts.URL, specA, "")
	body = readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("resubmit X-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Cache-Tier"); got != service.TierMemory {
		t.Fatalf("resubmit X-Cache-Tier = %q, want %q", got, service.TierMemory)
	}
	if !bytes.Equal(body, wantA) {
		t.Fatalf("cached result differs from first bytes")
	}

	// --- Scenario 2: worker-level remote cache tier. Compute specB on a
	// non-owner (worker 2, directly), then submit it to worker 0: its local
	// tiers miss and the sibling fetch finds worker 2's copy.
	specB := specOwnedBy(t, rt.Ring(), fleet.urls[1], "NEW ORDER")
	wantB := renderExpected(t, specB)
	resp = postVia(t, fleet.urls[2], specB, "")
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, wantB) {
		t.Fatalf("priming worker 2: HTTP %d, match=%v", resp.StatusCode, bytes.Equal(body, wantB))
	}
	resp = postVia(t, fleet.urls[0], specB, "")
	body = readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("remote tier X-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Cache-Tier"); got != service.TierRemote {
		t.Fatalf("remote tier X-Cache-Tier = %q, want %q", got, service.TierRemote)
	}
	if !bytes.Equal(body, wantB) {
		t.Fatalf("remote-tier result differs from tlssim -json bytes")
	}

	// --- Scenario 3: the owner dies. Each spec below is owned by worker 1
	// on the full ring and lives elsewhere; the live ring's Owner() reports
	// a successor once worker 1 is ejected, so the original placement and
	// failover candidate come from a fresh ring over the full fleet.
	freshRing, err := NewRing(fleet.urls, 0, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	candidate := func(spec service.JobSpec) string {
		return freshRing.Preference(digestOf(t, spec), 2)[1]
	}
	fleet.ts[1].Close()

	// (a) specB is warm in memory on both survivors (worker 2 computed it,
	// worker 0 fetched it). The router's owner proxy fails, worker 1 is
	// ejected, and the failover candidate answers from memory: the same
	// bytes, and no simulation anywhere in the fleet.
	misses := fleet.sum(cacheMisses)
	failovers := rt.MetricsSnapshot().Failovers
	resp = postVia(t, rts.URL, specB, "cluster-e2e-failover")
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failed-over submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("failed-over X-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Cache-Tier"); got != service.TierMemory {
		t.Errorf("failed-over X-Cache-Tier = %q, want %q", got, service.TierMemory)
	}
	if by, want := resp.Header.Get("X-Served-By"), candidate(specB); by != want {
		t.Errorf("failed-over X-Served-By = %q, want the failover candidate %q", by, want)
	}
	if !bytes.Equal(body, wantB) {
		t.Fatalf("failed-over result differs from tlssim -json bytes")
	}
	if got := rt.MetricsSnapshot().Failovers; got < failovers+1 {
		t.Errorf("router Failovers %d -> %d, want at least one failover", failovers, got)
	}
	if got := fleet.sum(cacheMisses); got != misses {
		t.Errorf("fleet cache misses %d -> %d, want no new simulation", misses, got)
	}
	if rt.Ring().Alive(fleet.urls[1]) {
		t.Fatalf("dead worker still alive in the ring after proxy failure")
	}

	// (b) specD is warm only on the survivor that is not its failover
	// candidate; the candidate serves it through its -peers tier.
	specD := specOwnedBy(t, freshRing, fleet.urls[1], "PAYMENT")
	wantD := renderExpected(t, specD)
	holder := fleet.urls[0]
	if holder == candidate(specD) {
		holder = fleet.urls[2]
	}
	resp = postVia(t, holder, specD, "")
	if body = readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(body, wantD) {
		t.Fatalf("priming %s: HTTP %d, match=%v", holder, resp.StatusCode, bytes.Equal(body, wantD))
	}
	misses = fleet.sum(cacheMisses)
	resp = postVia(t, rts.URL, specD, "")
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling-warm submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache-Tier"); got != service.TierRemote {
		t.Errorf("sibling-warm X-Cache-Tier = %q, want %q", got, service.TierRemote)
	}
	if by, want := resp.Header.Get("X-Served-By"), candidate(specD); by != want {
		t.Errorf("sibling-warm X-Served-By = %q, want the failover candidate %q", by, want)
	}
	if !bytes.Equal(body, wantD) {
		t.Fatalf("sibling-warm result differs from tlssim -json bytes")
	}
	if got := fleet.sum(cacheMisses); got != misses {
		t.Errorf("fleet cache misses %d -> %d, want no new simulation", misses, got)
	}

	// --- Scenario 4: failover recompute. A fresh spec owned by the dead
	// worker is cached nowhere, so the router recomputes it on the next
	// preference node — bytes still identical.
	specC := specOwnedBy(t, freshRing, fleet.urls[1], "STOCK LEVEL")
	wantC := renderExpected(t, specC)
	resp = postVia(t, rts.URL, specC, "")
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if by := resp.Header.Get("X-Served-By"); by == fleet.urls[1] {
		t.Fatalf("failover served by the dead owner %q", by)
	}
	if !bytes.Equal(body, wantC) {
		t.Fatalf("failover result differs from tlssim -json bytes")
	}

	m := rt.MetricsSnapshot()
	if m.JobsRouted < 5 {
		t.Errorf("router JobsRouted = %d, want >= 5", m.JobsRouted)
	}
	if m.RingRebalances == 0 {
		t.Errorf("router RingRebalances = 0 after a worker death")
	}
}

// TestRemoteTierCountsMissesAndFailures: a daemon whose -peers tier asks
// one sibling that holds no result for the digest (404) and one that is
// down counts one miss and one failure, in JSON and Prometheus alike, and
// then runs the job itself.
func TestRemoteTierCountsMissesAndFailures(t *testing.T) {
	empty := service.New(service.Options{Workers: 1, QueueDepth: 1})
	emptyTS := httptest.NewServer(empty.Handler())
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	g := NewRemoteGroup([]string{emptyTS.URL, down.URL}, nil)
	s := service.New(service.Options{Workers: 1, QueueDepth: 4, RemoteFetch: g.Fetch})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		emptyTS.Close()
		for _, srv := range []*service.Server{s, empty} {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}
	})

	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"benchmark":"ORDER STATUS","txns":1,"warmup":1}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	m := s.MetricsSnapshot()
	if m.CacheRemoteMisses != 1 || m.CacheRemoteFailures != 1 || m.CacheRemoteHits != 0 || m.CacheMisses != 1 {
		t.Errorf("remote misses %d, failures %d, hits %d, cache misses %d; want 1, 1, 0, 1",
			m.CacheRemoteMisses, m.CacheRemoteFailures, m.CacheRemoteHits, m.CacheMisses)
	}
	prom := string(scrape(t, s.Handler(), "text/plain"))
	for _, line := range []string{"\ntlsd_cache_remote_misses_total 1\n", "\ntlsd_cache_remote_failures_total 1\n"} {
		if !strings.Contains(prom, line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestRouterJobIDsNameOneWorker submits one async job to each worker of a
// fleet through the router and reads each back by its own ID: every tlsd
// draws its job IDs at random, so two workers never hand out the same ID
// and the router's job->worker map cannot send one job's reads to another
// worker.
func TestRouterJobIDsNameOneWorker(t *testing.T) {
	fleet := newTestFleet(t, 2)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	ids := make([]string, len(fleet.urls))
	digests := make([]string, len(fleet.urls))
	for i, owner := range fleet.urls {
		spec := specOwnedBy(t, rt.Ring(), owner, "ORDER STATUS")
		digests[i] = digestOf(t, spec)
		b, _ := json.Marshal(spec)
		resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("async POST: %v", err)
		}
		readBody(t, resp)
		if got := resp.Header.Get("X-Served-By"); got != owner {
			t.Fatalf("submission %d served by %q, want its owner %q", i, got, owner)
		}
		if ids[i] = resp.Header.Get("X-Job-Id"); ids[i] == "" {
			t.Fatalf("submission %d returned no X-Job-Id", i)
		}
	}
	if ids[0] == ids[1] {
		t.Errorf("both workers named their job %q", ids[0])
	}
	for i, owner := range fleet.urls {
		resp, err := http.Get(rts.URL + "/v1/jobs/" + ids[i])
		if err != nil {
			t.Fatalf("proxied status: %v", err)
		}
		var st service.Status
		if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
			t.Fatalf("status of %s: %v", ids[i], err)
		}
		if by := resp.Header.Get("X-Served-By"); by != owner || st.ID != ids[i] || st.Digest != digests[i] {
			t.Errorf("GET %s: served by %q as job %q digest %.12s, want %q's job digest %.12s",
				ids[i], by, st.ID, st.Digest, owner, digests[i])
		}
	}
}

// TestRouterJobProxyAndCancel pins the job-scoped proxy routes (status,
// result, DELETE-cancel), the client's 409 contract and the 400 for a
// malformed spec through a router.
func TestRouterJobProxyAndCancel(t *testing.T) {
	fleet := newTestFleet(t, 2)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	cli := &service.Client{Base: rts.URL}
	warmup := 1
	seed := int64(77)
	spec := service.JobSpec{Benchmark: "PAYMENT", Txns: 2, Warmup: &warmup, Seed: &seed}
	res, err := cli.Do(context.Background(), spec)
	if err != nil {
		t.Fatalf("Do via router: %v", err)
	}
	if res.CorrelationID == "" {
		t.Errorf("router response missing correlation ID")
	}
	if !bytes.Equal(res.Body, renderExpected(t, spec)) {
		t.Fatalf("routed client result differs from tlssim -json bytes")
	}

	// Submit async to learn the job ID, then exercise the proxied job
	// routes against it.
	b, _ := json.Marshal(spec)
	resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("async POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatalf("async submit returned no X-Job-Id")
	}

	sresp, err := http.Get(rts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("proxied status: %v", err)
	}
	sbody := readBody(t, sresp)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("proxied status: HTTP %d: %s", sresp.StatusCode, sbody)
	}

	rresp, err := http.Get(rts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("proxied result: %v", err)
	}
	rbody := readBody(t, rresp)
	if rresp.StatusCode != http.StatusOK || !bytes.Equal(rbody, res.Body) {
		t.Fatalf("proxied result: HTTP %d, identical=%v", rresp.StatusCode, bytes.Equal(rbody, res.Body))
	}

	// The job is terminal (it was a cache hit on a finished digest), so
	// DELETE-cancel answers 409 and the client maps it to ErrAlreadyTerminal.
	if err := cli.Cancel(context.Background(), id); !errors.Is(err, service.ErrAlreadyTerminal) {
		t.Fatalf("Cancel of terminal job = %v, want ErrAlreadyTerminal", err)
	}

	// Unknown jobs 404 at the router without touching a worker.
	uresp, err := http.Get(rts.URL + "/v1/jobs/job-does-not-exist")
	if err != nil {
		t.Fatalf("unknown job status: %v", err)
	}
	readBody(t, uresp)
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", uresp.StatusCode)
	}

	// A body with anything but whitespace after the spec object is a bad
	// spec: 400 at the router, which routes it nowhere.
	routed := rt.MetricsSnapshot().JobsRouted
	submitted := func(m service.Metrics) uint64 { return m.JobsSubmitted }
	before := fleet.sum(submitted)
	tresp, err := http.Post(rts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"PAYMENT"}{"benchmark":"NEW ORDER"}`))
	if err != nil {
		t.Fatalf("trailing-data POST: %v", err)
	}
	tbody := readBody(t, tresp)
	if tresp.StatusCode != http.StatusBadRequest || !bytes.Contains(tbody, []byte("bad job spec")) {
		t.Errorf("trailing data: HTTP %d %s, want 400 bad job spec", tresp.StatusCode, tbody)
	}
	if got := rt.MetricsSnapshot().JobsRouted; got != routed {
		t.Errorf("trailing data: jobs routed %d -> %d, want no route", routed, got)
	}
	if after := fleet.sum(submitted); after != before {
		t.Errorf("trailing data: worker submissions %d -> %d, want none", before, after)
	}
}

// TestProberEjectsAndReadmits drives the health prober against a worker
// that flips from healthy to failing and back: probeThreshold (3)
// consecutive failures eject it, and the first healthy probe readmits it.
func TestProberEjectsAndReadmits(t *testing.T) {
	var sick atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if sick.Load() {
			http.Error(w, "unwell", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	ring, err := NewRing([]string{ts.URL}, 0, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	p := NewProber(ring, nil)

	p.ProbeOnce()
	if !ring.Alive(ts.URL) {
		t.Fatalf("healthy worker ejected")
	}
	sick.Store(true)
	p.ProbeOnce()
	p.ProbeOnce()
	if !ring.Alive(ts.URL) {
		t.Fatalf("worker ejected before the failure threshold")
	}
	p.ProbeOnce()
	if ring.Alive(ts.URL) {
		t.Fatalf("worker not ejected after 3 consecutive failures")
	}
	sick.Store(false)
	p.ProbeOnce()
	if !ring.Alive(ts.URL) {
		t.Fatalf("recovered worker not readmitted on first healthy probe")
	}
	if got := ring.Rebalances(); got != 2 {
		t.Fatalf("Rebalances = %d, want 2", got)
	}
	if p.Probes() != 5 {
		t.Fatalf("Probes = %d, want 5", p.Probes())
	}
}

// TestRouterMetricsEndpoint pins both representations of /metrics.
func TestRouterMetricsEndpoint(t *testing.T) {
	fleet := newTestFleet(t, 2)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m RouterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics JSON: %v", err)
	}
	resp.Body.Close()
	if len(m.Nodes) != 2 {
		t.Fatalf("metrics nodes = %d, want 2", len(m.Nodes))
	}

	req, _ := http.NewRequest(http.MethodGet, rts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics (prom): %v", err)
	}
	prom := readBody(t, presp)
	if err := telemetry.LintProm(prom); err != nil {
		t.Errorf("exposition fails lint: %v\n%s", err, prom)
	}
	for _, want := range []string{
		"tlsrouter_build_info", "tlsrouter_nodes_alive", "tlsrouter_node_breaker_state",
		"tlsrouter_jobs_routed_total", "tlsrouter_failovers_total",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("prom exposition missing family %s", want)
		}
	}
}

// lockedBuffer serializes concurrent log writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// accessLine returns the first "http access" record in b, decoded.
func accessLine(t *testing.T, b *lockedBuffer) map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log line is not JSON: %v", err)
		}
		if m["msg"] == "http access" {
			return m
		}
	}
	t.Fatalf("no http access line in:\n%s", b.buf.String())
	return nil
}

// TestRouterAccessLogMatchesTlsd: the router fronts requests with tlsd's own
// middleware, so its access line carries tlsd's message and attribute names
// (plus component=router) and the client's correlation ID.
func TestRouterAccessLogMatchesTlsd(t *testing.T) {
	var wlog, rlog lockedBuffer
	s := service.New(service.Options{Workers: 1, QueueDepth: 1,
		Logger: slog.New(slog.NewJSONHandler(&wlog, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rt, err := NewRouter(Options{Workers: []string{ts.URL},
		Logger: slog.New(slog.NewJSONHandler(&rlog, nil))})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	for _, c := range []struct{ base, corr string }{{ts.URL, "worker-1"}, {rts.URL, "router-1"}} {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
		req.Header.Set(service.CorrelationHeader, c.corr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s/healthz: %v", c.base, err)
		}
		readBody(t, resp)
		if got := resp.Header.Get(service.CorrelationHeader); got != c.corr {
			t.Errorf("%s echoed correlation %q, want %q", c.base, got, c.corr)
		}
	}

	worker, router := accessLine(t, &wlog), accessLine(t, &rlog)
	if router["component"] != "router" || router["correlation_id"] != "router-1" ||
		router["path"] != "/healthz" || router["status"] != float64(http.StatusOK) {
		t.Errorf("router access line = %v", router)
	}
	delete(router, "component")
	for k := range worker {
		if _, ok := router[k]; !ok {
			t.Errorf("router access line lacks tlsd's %q: %v", k, router)
		}
	}
	for k := range router {
		if _, ok := worker[k]; !ok {
			t.Errorf("router access line has %q, which tlsd's lacks: %v", k, worker)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}
