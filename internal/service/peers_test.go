package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// postWait submits spec with ?wait=1 and returns the response and its body.
func postWait(t *testing.T, url string, spec JobSpec) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST ?wait=1: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read ?wait=1 body: %v", err)
	}
	return resp, body
}

func digestOf(t *testing.T, spec JobSpec) string {
	t.Helper()
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return r.Digest
}

// The -peers tier: a daemon that asks one sibling holding no result for the
// digest (404) and one that is down counts one miss and one failure, in
// JSON and Prometheus alike, and then runs the job itself.
func TestRemoteTierCountsMissesAndFailures(t *testing.T) {
	_, empty := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Peers: []string{empty.URL, down.URL}})

	warmup := 1
	if resp, body := postWait(t, ts.URL, JobSpec{Benchmark: "ORDER STATUS", Txns: 1, Warmup: &warmup}); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	m := s.MetricsSnapshot()
	if m.CacheRemoteMisses != 1 || m.CacheRemoteFailures != 1 || m.CacheRemoteHits != 0 || m.CacheMisses != 1 {
		t.Errorf("remote misses %d, failures %d, hits %d, cache misses %d; want 1, 1, 0, 1",
			m.CacheRemoteMisses, m.CacheRemoteFailures, m.CacheRemoteHits, m.CacheMisses)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	for _, line := range []string{"\ntlsd_cache_remote_misses_total 1\n", "\ntlsd_cache_remote_failures_total 1\n"} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
}

// Concurrent admissions share the sibling links: each of four distinct
// submissions made at once asks the one sibling, and every ask is counted.
func TestRemoteTierConcurrentMisses(t *testing.T) {
	_, empty := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	s, _ := newTestServer(t, Options{Workers: 2, QueueDepth: 8, Peers: []string{empty.URL}})
	var wg sync.WaitGroup
	for _, bench := range []string{"NEW ORDER", "PAYMENT", "ORDER STATUS", "STOCK LEVEL"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, tier, err := s.Submit(tinySpec(bench), ""); err != nil || tier != "" {
				t.Errorf("%s: tier %q, error %v; want a miss", bench, tier, err)
			}
		}()
	}
	wg.Wait()
	if m := s.MetricsSnapshot(); m.CacheRemoteMisses != 4 || m.CacheRemoteFailures != 0 || m.CacheMisses != 4 {
		t.Errorf("remote misses %d, failures %d, cache misses %d; want 4, 0, 4",
			m.CacheRemoteMisses, m.CacheRemoteFailures, m.CacheMisses)
	}
}

// A sibling's 200 is a result only when its X-Job-Digest names the digest
// asked for. Siblings that answer every path with a page of their own, with
// no digest or another one, count as failures: the job runs here, and
// neither the client nor the store gets what they sent.
func TestRemoteTierRejectsForeignBody(t *testing.T) {
	page := []byte("<html>not a result</html>")
	bare := newStubServer(t, func(w http.ResponseWriter, r *http.Request) { w.Write(page) })
	other := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Job-Digest", strings.Repeat("0", 64))
		w.Write(page)
	})
	store := openTestStore(t, t.TempDir())
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Store: store, Peers: []string{bare.URL, other.URL}})

	warmup := 1
	spec := JobSpec{Benchmark: "ORDER STATUS", Txns: 1, Warmup: &warmup}
	want := renderExpected(t, spec)
	resp, body := postWait(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || resp.Header.Get("X-Cache-Tier") != "" {
		t.Fatalf("submit = %d, X-Cache %q, X-Cache-Tier %q: %.60s; want 200 and a miss",
			resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Cache-Tier"), body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served %.60q, want tlssim's bytes", body)
	}
	m := s.MetricsSnapshot()
	if m.CacheRemoteFailures != 2 || m.CacheRemoteMisses != 0 || m.CacheRemoteHits != 0 || m.CacheMisses != 1 {
		t.Errorf("remote failures %d, misses %d, hits %d, cache misses %d; want 2, 0, 0, 1",
			m.CacheRemoteFailures, m.CacheRemoteMisses, m.CacheRemoteHits, m.CacheMisses)
	}
	drain(t, s) // the result is published after the job is marked done
	if got, ok := store.Get(digestOf(t, spec)); !ok || !bytes.Equal(got, want) {
		t.Errorf("store holds %.60q (ok %v), want the job's own result", got, ok)
	}
}

// GET /v1/cache/{digest} answers from memory or disk with the digest it
// was asked for, 404s an unknown or malformed digest, and schedules
// nothing.
func TestCacheProbe(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Store: store})
	mem := tinySpec("PAYMENT")
	_, memBody := postWait(t, ts.URL, mem)
	memDigest := digestOf(t, mem)
	diskDigest := digestOf(t, tinySpec("ORDER STATUS"))
	diskBody := []byte(`{"stored":"verbatim"}`)
	store.Put(diskDigest, diskBody)
	before := s.MetricsSnapshot()

	for _, c := range []struct {
		name, digest, tier string
		body               []byte
	}{
		{"memory", memDigest, TierMemory, memBody},
		{"disk", diskDigest, TierDisk, diskBody},
		{"unknown", strings.Repeat("ab", 32), "", nil},
		{"63 characters", memDigest[:63], "", nil},
		{"upper-case hex", strings.ToUpper(memDigest), "", nil},
		{"non-hex", strings.Repeat("g", 64), "", nil},
	} {
		resp, body := getBody(t, ts.URL+"/v1/cache/"+c.digest)
		if c.body == nil {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: HTTP %d, want 404", c.name, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, c.body) {
			t.Errorf("%s: HTTP %d, body %.60q; want 200 and the stored bytes", c.name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache-Tier"); got != c.tier {
			t.Errorf("%s: X-Cache-Tier %q, want %q", c.name, got, c.tier)
		}
		if got := resp.Header.Get("X-Job-Digest"); got != c.digest {
			t.Errorf("%s: X-Job-Digest %q, want %q", c.name, got, c.digest)
		}
	}

	after := s.MetricsSnapshot()
	if after.JobsSubmitted != before.JobsSubmitted || after.QueueDepth != 0 || after.CacheEntries != before.CacheEntries {
		t.Errorf("probes moved jobs_submitted %d -> %d, queue_depth to %d, cache_entries %d -> %d; want all unchanged",
			before.JobsSubmitted, after.JobsSubmitted, after.QueueDepth, before.CacheEntries, after.CacheEntries)
	}
	if probes, hits := after.CacheProbes-before.CacheProbes, after.CacheProbeHits-before.CacheProbeHits; probes != 3 || hits != 2 {
		t.Errorf("cache_probes +%d, cache_probe_hits +%d; want +3 (the well-formed digests) and +2", probes, hits)
	}
}

// Two daemons peered to each other cannot pass a probe on: a probe of a
// digest neither holds answers 404 without a request to the sibling, and a
// submission's miss asks the sibling once, which asks nobody back.
func TestPeeredProbesDoNotCascade(t *testing.T) {
	var requests [2]atomic.Int64
	var ts [2]*httptest.Server
	var urls [2]string
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	var a *Server
	for i := range ts {
		s := New(Options{Workers: 1, QueueDepth: 4, Peers: []string{urls[1-i]}})
		h := s.Handler()
		ts[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests[i].Add(1)
			h.ServeHTTP(w, r)
		})
		ts[i].Start()
		t.Cleanup(func() {
			ts[i].Close()
			drain(t, s)
		})
		if i == 0 {
			a = s
		}
	}

	spec := tinySpec("STOCK LEVEL")
	if resp, _ := getBody(t, urls[0]+"/v1/cache/"+digestOf(t, spec)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("probe of a digest neither holds: HTTP %d, want 404", resp.StatusCode)
	}
	if n := requests[1].Load(); n != 0 {
		t.Errorf("the probed daemon's sibling got %d requests, want 0", n)
	}

	if resp, body := postWait(t, urls[0], spec); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("submit = %d, X-Cache %q: %.60s; want 200 and a miss", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if na, nb := requests[0].Load(), requests[1].Load(); na != 2 || nb != 1 {
		t.Errorf("requests: %d to the daemon, %d to its sibling; want 2 (the probe and the submission) and 1 (its fetch)", na, nb)
	}
	if m := a.MetricsSnapshot(); m.CacheRemoteMisses != 1 {
		t.Errorf("cache_remote_misses = %d, want 1", m.CacheRemoteMisses)
	}
}

// A job is counted before it ends: a client that has seen a job end, by a
// ?wait=1 response or a terminal poll, finds it in the metrics at once.
func TestMetricsCountJobsBeforeTheyEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	for i, bench := range []string{"NEW ORDER", "PAYMENT", "ORDER STATUS", "STOCK LEVEL"} {
		if resp, body := postWait(t, ts.URL, tinySpec(bench)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", bench, resp.StatusCode, body)
		}
		if got := s.MetricsSnapshot().JobsCompleted; got != uint64(i+1) {
			t.Errorf("after the %s response: jobs_completed = %d, want %d", bench, got, i+1)
		}
	}

	started, release := holdWorkers(t)
	resp := postJob(t, ts, tinySpec("DELIVERY"))
	holder := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started
	queuedSpec := tinySpec("NEW ORDER")
	queuedSpec.Txns = 3
	resp = postJob(t, ts, queuedSpec)
	queued := decodeStatus(t, resp.Body)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE queued: %v", err)
	}
	dresp.Body.Close()
	if st := waitDone(t, ts, queued.ID); st.State != StateFailed {
		t.Fatalf("cancelled job state = %s, want failed", st.State)
	}
	if m := s.MetricsSnapshot(); m.JobsCancelled != 1 || m.JobsFailed != 1 {
		t.Errorf("after the cancelled job ended: jobs_cancelled %d, jobs_failed %d; want 1, 1", m.JobsCancelled, m.JobsFailed)
	}
	close(release)
	waitDone(t, ts, holder.ID)
}
