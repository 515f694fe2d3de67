package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
// pin that a routed, rescued, or failed-over result is byte-identical to
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
			RemoteFetch: func(ctx context.Context, digest string) ([]byte, string, bool) {
				g := f.groups[idx].Load()
				if g == nil {
					return nil, "", false
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
		f.groups[i].Store(NewRemoteGroup(peers, RemoteOptions{}))
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

// specOwnedBy searches seed-space for a tiny spec whose digest the ring
// places on the given worker, so each scenario can target a known owner.
func specOwnedBy(t *testing.T, ring *Ring, owner string) service.JobSpec {
	t.Helper()
	for s := int64(0); s < 256; s++ {
		warmup := 1
		seed := 100 + s
		spec := service.JobSpec{Benchmark: "NEW ORDER", Txns: 2, Warmup: &warmup, Seed: &seed}
		r, err := spec.Resolve()
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		if got, _ := ring.Owner(r.Digest); got == owner {
			return spec
		}
	}
	t.Fatalf("no spec found owned by %s in 256 seeds", owner)
	return service.JobSpec{}
}

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
// byte-identical results, the worker-level remote cache tier, sibling-
// cache rescue when an owner dies warm, and failover recompute when no
// replica has the bytes.
func TestClusterEndToEnd(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// --- Scenario 1: routed submission, byte-identity, correlation echo.
	specA := specOwnedBy(t, rt.Ring(), fleet.urls[0])
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
	specB := specOwnedBy(t, rt.Ring(), fleet.urls[1])
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

	// --- Scenario 3: sibling-cache rescue through the router. specB's
	// owner (worker 1) dies; the router's owner proxy fails, and the rescue
	// ladder finds the bytes in a surviving sibling's cache.
	fleet.ts[1].Close()
	resp = postVia(t, rts.URL, specB, "cluster-e2e-rescue")
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rescued submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache-Tier"); got != service.TierRemote {
		t.Fatalf("rescue X-Cache-Tier = %q, want %q", got, service.TierRemote)
	}
	if by := resp.Header.Get("X-Served-By"); by == fleet.urls[1] {
		t.Fatalf("rescue served by the dead owner %q", by)
	}
	if !bytes.Equal(body, wantB) {
		t.Fatalf("rescued result differs from tlssim -json bytes")
	}
	if rt.Ring().Alive(fleet.urls[1]) {
		t.Fatalf("dead worker still alive in the ring after proxy failure")
	}

	// --- Scenario 4: failover recompute. A fresh spec owned by the dead
	// worker is cached nowhere, so the router recomputes it on the next
	// preference node — bytes still identical.
	// The owner is dead, so the live ring's Owner() reports a successor;
	// derive the original placement from a fresh ring over the full fleet.
	freshRing, err := NewRing(fleet.urls, 0, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	specC := func() service.JobSpec {
		for s := int64(0); s < 512; s++ {
			warmup := 1
			seed := 5000 + s
			spec := service.JobSpec{Benchmark: "STOCK LEVEL", Txns: 2, Warmup: &warmup, Seed: &seed}
			r, rerr := spec.Resolve()
			if rerr != nil {
				t.Fatalf("Resolve: %v", rerr)
			}
			if got, _ := freshRing.Owner(r.Digest); got == fleet.urls[1] {
				return spec
			}
		}
		t.Fatalf("no fresh spec owned by dead worker in 512 seeds")
		return service.JobSpec{}
	}()
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
	if m.RemoteCacheHits == 0 {
		t.Errorf("router RemoteCacheHits = 0 after a sibling-cache rescue")
	}
	if m.JobsRouted < 4 {
		t.Errorf("router JobsRouted = %d, want >= 4", m.JobsRouted)
	}
	if m.RingRebalances == 0 {
		t.Errorf("router RingRebalances = 0 after a worker death")
	}
}

// TestRouterJobProxyAndCancel pins the job-scoped proxy routes (status,
// result, DELETE-cancel) and the client's 409 contract through a router.
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
}

// TestProberEjectsAndReadmits drives the health prober against a worker
// that flips from healthy to failing and back.
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
	p := NewProber(ring, ProberOptions{Interval: time.Hour, Threshold: 3})

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
		"tlsrouter_jobs_routed_total", "tlsrouter_remote_cache_hits_total",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("prom exposition missing family %s", want)
		}
	}
}
