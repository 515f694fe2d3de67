package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"subthreads/internal/telemetry"
)

// syncBuffer serializes the slog handler's writes: workers, the HTTP mux,
// and the test body all log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes the buffer's JSON log records.
func logLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(strings.NewReader(b.String()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, b.String())
		}
		out = append(out, m)
	}
	return out
}

// findLog returns the first record with the given msg and all required
// string fields matching, or nil.
func findLog(lines []map[string]any, msg string, fields map[string]string) map[string]any {
	for _, l := range lines {
		if l["msg"] != msg {
			continue
		}
		ok := true
		for k, v := range fields {
			if s, _ := l[k].(string); s != v {
				ok = false
				break
			}
		}
		if ok {
			return l
		}
	}
	return nil
}

var hexCorr = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestCorrelationIDHeaderContract(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	// A log-safe client-supplied ID is accepted and echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(CorrelationHeader, "sweep-42.a:b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(CorrelationHeader); got != "sweep-42.a:b" {
		t.Errorf("client ID not echoed: got %q", got)
	}

	// No header: the daemon generates one and returns it.
	resp2, body := getBody(t, ts.URL+"/healthz")
	gen := resp2.Header.Get(CorrelationHeader)
	if !hexCorr.MatchString(gen) {
		t.Errorf("generated correlation ID %q is not 16 hex chars (body %s)", gen, body)
	}

	// Values the transport won't even carry are rejected at the source.
	for _, bad := range []string{"", "a\nb", "evil=\"x\"", strings.Repeat("y", 129)} {
		if got := sanitizeCorrelation(bad); got != "" {
			t.Errorf("sanitizeCorrelation(%q) = %q, want rejection", bad, got)
		}
	}

	// A header that could inject log lines or filenames is replaced.
	for _, bad := range []string{"two words", "../../etc", strings.Repeat("x", 200)} {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set(CorrelationHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(CorrelationHeader); got == bad || !hexCorr.MatchString(got) {
			t.Errorf("unsafe ID %q not replaced: got %q", bad, got)
		}
	}
}

func TestSSEEventsCarryCorrelationID(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	const corr = "trace-7"
	b, _ := json.Marshal(tinySpec("NEW ORDER"))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(CorrelationHeader, corr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	if got := resp.Header.Get(CorrelationHeader); got != corr {
		t.Errorf("submit response correlation = %q, want %q", got, corr)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts, st.ID)

	eresp, events := getBody(t, ts.URL+st.EventsURL)
	if got := eresp.Header.Get(CorrelationHeader); got != corr {
		t.Errorf("events response header correlation = %q, want the job's %q", got, corr)
	}
	text := string(events)
	// Every SSE block — the job preamble, each telemetry event, the done
	// terminator — carries the job's correlation ID in its id: field.
	blocks := strings.Count(text, "event: ")
	stamps := strings.Count(text, "id: "+corr+"\n")
	if blocks == 0 || stamps != blocks {
		t.Errorf("SSE stream has %d event blocks but %d correlation stamps:\n%.400s", blocks, stamps, text)
	}
	if !strings.Contains(text, `"correlation_id":"`+corr+`"`) {
		t.Errorf("job preamble does not carry the correlation ID:\n%.200s", text)
	}
	// The telemetry payloads themselves are the library encoding, unchanged:
	// no correlation field is injected into data: lines of telemetry events.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"kind"`) &&
			strings.Contains(line, "correlation") {
			t.Errorf("telemetry payload was rewritten: %s", line)
		}
	}
}

func TestStructuredLogsCoverLifecycle(t *testing.T) {
	var sb syncBuffer
	logger := slog.New(slog.NewJSONHandler(&sb, nil))
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Logger: logger})

	const corr = "life-1"
	b, _ := json.Marshal(tinySpec("PAYMENT"))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set(CorrelationHeader, corr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts, st.ID)

	// Resubmit: the cache hit gets its own correlation ID but names the
	// job's original one.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	req2.Header.Set(CorrelationHeader, "life-2")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp2.Body.Close()

	waitFor(t, func() bool {
		return findLog(logLines(t, &sb), "job completed", map[string]string{"correlation_id": corr}) != nil
	}, "job completed was never logged")
	lines := logLines(t, &sb)

	access := findLog(lines, "http access", map[string]string{
		"method": "POST", "path": "/v1/jobs", "correlation_id": corr,
	})
	if access == nil {
		t.Fatalf("no access log for the submit request:\n%s", sb.String())
	}
	for _, k := range []string{"status", "bytes", "latency_ms"} {
		if _, ok := access[k].(float64); !ok {
			t.Errorf("access log missing %s: %v", k, access)
		}
	}

	if findLog(lines, "job enqueued", map[string]string{"correlation_id": corr, "job": st.ID, "digest": st.Digest}) == nil {
		t.Errorf("no enqueued log line:\n%s", sb.String())
	}
	if findLog(lines, "job started", map[string]string{"correlation_id": corr, "job": st.ID}) == nil {
		t.Errorf("no started log line:\n%s", sb.String())
	}
	done := findLog(lines, "job completed", map[string]string{"correlation_id": corr, "job": st.ID, "digest": st.Digest})
	if done == nil {
		t.Fatalf("no completed log line:\n%s", sb.String())
	}
	for _, k := range []string{"queue_wait_ms", "build_ms", "sim_ms", "render_ms", "total_ms", "bytes"} {
		if _, ok := done[k].(float64); !ok {
			t.Errorf("completed log missing %s: %v", k, done)
		}
	}
	if findLog(lines, "job cache hit", map[string]string{
		"correlation_id": "life-2", "job": st.ID, "job_correlation_id": corr,
	}) == nil {
		t.Errorf("no cache-hit log line naming both correlation IDs:\n%s", sb.String())
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	resp := postJob(t, ts, tinySpec("NEW ORDER"))
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts, st.ID)

	get := func(accept string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// No Accept, and curl's */*, keep the historical JSON document.
	for _, accept := range []string{"", "*/*", "application/json"} {
		resp, body := get(accept)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q: Content-Type = %q, want application/json", accept, ct)
		}
		var m Metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("Accept %q: /metrics is not the JSON snapshot: %v", accept, err)
		}
		if m.JobsCompleted != 1 {
			t.Errorf("Accept %q: jobs_completed = %d, want 1", accept, m.JobsCompleted)
		}
	}

	// A Prometheus scraper's Accept gets the text exposition.
	for _, accept := range []string{
		"text/plain",
		"text/plain; version=0.0.4",
		"application/openmetrics-text;version=1.0.0;charset=utf-8, text/plain",
	} {
		resp, body := get(accept)
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
			t.Errorf("Accept %q: Content-Type = %q, want %q", accept, ct, telemetry.PromContentType)
		}
		if err := telemetry.LintProm(body); err != nil {
			t.Errorf("Accept %q: exposition does not lint: %v\n%s", accept, err, body)
		}
		text := string(body)
		for _, want := range []string{
			`tlsd_build_info{module="subthreads"`,
			"tlsd_jobs_completed_total 1",
			`tlsd_job_stage_latency_microseconds_count{stage="sim"} 1`,
			`tlsd_job_stage_latency_microseconds_bucket{stage="queue",le="+Inf"} 1`,
			"tlsd_job_cold_latency_microseconds_count 1",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("Accept %q: exposition missing %q:\n%s", accept, want, text)
			}
		}
	}
}

// TestFreshDaemonScrapeIsClean is the zero-jobs guard: before any job has
// run, every summary that divides by a count must render as 0, never NaN,
// in both representations.
func TestFreshDaemonScrapeIsClean(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	_, body := getBody(t, ts.URL+"/metrics")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("fresh JSON snapshot invalid: %v\n%s", err, body)
	}
	if m.CacheHitRatio != 0 {
		t.Errorf("fresh cache_hit_ratio = %v, want 0", m.CacheHitRatio)
	}
	if strings.Contains(string(body), "NaN") {
		t.Errorf("fresh JSON snapshot contains NaN:\n%s", body)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.LintProm(prom); err != nil {
		t.Errorf("fresh exposition does not lint: %v\n%s", err, prom)
	}
	text := string(prom)
	if strings.Contains(text, "NaN") || strings.Contains(text, "Inf ") {
		t.Errorf("fresh exposition contains non-finite values:\n%s", text)
	}
	if !strings.Contains(text, "tlsd_cache_hit_ratio 0") {
		t.Errorf("fresh exposition missing zero hit ratio:\n%s", text)
	}
	// All-zero histograms still render complete series.
	if !strings.Contains(text, `tlsd_job_stage_latency_microseconds_bucket{stage="render",le="+Inf"} 0`) {
		t.Errorf("fresh exposition missing empty stage histogram:\n%s", text)
	}
}

func TestDebugSurface(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	setRunningHook(t, func(*Job) { started <- struct{}{}; <-release })

	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	defer close(release)
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	const corr = "debug-1"
	b, _ := json.Marshal(tinySpec("NEW ORDER"))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set(CorrelationHeader, corr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started // the worker holds the job in flight

	rresp, body := getBody(t, dbg.URL+"/debug/requests")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests = %d, want 200", rresp.StatusCode)
	}
	var snap struct {
		InFlight int            `json:"in_flight"`
		Jobs     []debugRequest `json:"jobs"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/requests body: %v\n%s", err, body)
	}
	if snap.InFlight != 1 || len(snap.Jobs) != 1 {
		t.Fatalf("snapshot = %+v, want exactly the held job", snap)
	}
	got := snap.Jobs[0]
	if got.ID != st.ID || got.CorrelationID != corr || got.Digest != st.Digest {
		t.Errorf("snapshot identity = %+v, want job %s corr %s", got, st.ID, corr)
	}
	if got.State != StateRunning || got.Stage == "" || got.ElapsedMS < 0 {
		t.Errorf("snapshot progress = %+v, want running with a stage", got)
	}

	// The pprof surface is mounted and answers.
	presp, pbody := getBody(t, dbg.URL+"/debug/pprof/")
	if presp.StatusCode != http.StatusOK || !strings.Contains(string(pbody), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want the pprof index", presp.StatusCode)
	}
}

func TestFlightRecorderDumpsOnFailure(t *testing.T) {
	dir := t.TempDir()
	var sb syncBuffer
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4, FlightDir: dir,
		Logger: slog.New(slog.NewJSONHandler(&sb, nil)),
	})
	// A 64-event tail, so both a short stream and one cut to its tail
	// fit the test's tiny runs. The worker reads it only once a job is
	// dequeued, after this write.
	s.flightEvents = 64

	// The acceptance scenario: a seeded injection run whose forward-progress
	// watchdog trips deterministically mid-run, so the stream has a
	// telemetry tail when the structured failure dumps it.
	spec := tinySpec("NEW ORDER")
	spec.Inject = "seed=1,faults=5,window=60000"
	spec.Watchdog = 2000
	const corr = "crash-1"
	b, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set(CorrelationHeader, corr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed || final.Failure == nil {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Failure.Kind != "watchdog" {
		t.Fatalf("failure kind = %q, want watchdog (injected livelock)", final.Failure.Kind)
	}
	path := final.Failure.FlightRecord
	if path == "" {
		t.Fatalf("failure carries no flight record: %+v", final.Failure)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), corr) {
		t.Errorf("flight record %q not under %s with correlation %s", path, dir, corr)
	}
	// The dump is the tail of the stream the SSE endpoint replays: all of
	// it when it is short, as here.
	dumpIsTail := func(id, path string, long bool) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("flight record unreadable: %v", err)
		}
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		evs := j.Events().Events()
		if len(evs) == 0 || (len(evs) > 64) != long {
			t.Fatalf("job %s streamed %d events: the scenario no longer covers its case", id, len(evs))
		}
		var want bytes.Buffer
		if err := telemetry.EncodeJSONL(&want, evs[max(0, len(evs)-64):]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want.Bytes()) {
			t.Errorf("flight record of %s is not the stream's last 64 of %d events:\n got %d bytes\nwant %d bytes",
				id, len(evs), len(data), want.Len())
		}
	}
	dumpIsTail(st.ID, path, false)

	// The failure log line references the dump by path and correlation ID.
	// The worker writes it after the job turns terminal, so wait for it.
	waitFor(t, func() bool {
		return findLog(logLines(t, &sb), "job failed", map[string]string{
			"correlation_id": corr, "job": st.ID, "flight_record": path, "kind": "watchdog",
		}) != nil
	}, "no failure log referencing the flight record")

	// A run that dies late has streamed more than the tail holds.
	late := tinySpec("NEW ORDER")
	late.MaxCycles = 150_000
	resp = postJob(t, ts, late)
	st = decodeStatus(t, resp.Body)
	resp.Body.Close()
	final = waitDone(t, ts, st.ID)
	if final.State != StateFailed || final.Failure.Kind != "max-cycles" {
		t.Fatalf("late failure: %+v, want failed with max-cycles", final)
	}
	dumpIsTail(st.ID, final.Failure.FlightRecord, true)
}

func TestFlightRecorderDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	spec := tinySpec("NEW ORDER")
	spec.MaxCycles = 1
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Failure.FlightRecord != "" {
		t.Errorf("flight record %q written with the recorder disabled", final.Failure.FlightRecord)
	}
}

// TestMuxMethodConsistency audits the route table: every endpoint declares
// its method, so the wrong verb is a 405 naming the right one, and unknown
// paths are 404 — no handler silently accepts a method it doesn't implement.
func TestMuxMethodConsistency(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	for _, c := range []struct {
		method, path string
		allow        string
	}{
		{"GET", "/v1/jobs", "POST"},  // collection is submit-only
		{"GET", "/v1/nothing", ""},   // unknown path stays 404
		{"GET", "/debug/pprof/", ""}, // profiling is not on the public port
		{"PUT", "/v1/jobs/job-1", "GET"},
		{"PUT", "/v1/jobs/job-1", "DELETE"}, // cancel is a first-class method
		{"DELETE", "/v1/jobs/job-1", ""},    // supported method, unknown job
		{"POST", "/v1/jobs/job-1/result", "GET"},
		{"POST", "/v1/jobs/job-1/events", "GET"},
		{"POST", "/healthz", "GET"},
		{"POST", "/readyz", "GET"},
		{"POST", "/metrics", "GET"},
		{"PUT", "/metrics", "GET"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if c.allow == "" {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", c.method, c.path, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); !strings.Contains(got, c.allow) {
			t.Errorf("%s %s Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}
