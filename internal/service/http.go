package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"subthreads/internal/telemetry"
	"subthreads/internal/version"
)

// httpMux is the server's route table (Go 1.22 pattern syntax).
type httpMux = *http.ServeMux

// Handler returns the daemon's HTTP API, wrapped in the observability
// middleware (per-request correlation IDs + structured access logging):
//
//	POST   /v1/jobs              submit a JobSpec (JSON body); ?wait=1
//	                             blocks until the job is terminal
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel a live job
//	GET    /v1/jobs/{id}/result  the result document (tlssim -json bytes)
//	GET    /v1/jobs/{id}/events  live telemetry stream (Server-Sent Events)
//	GET  /healthz                liveness + build version
//	GET  /readyz                 readiness (503 while draining)
//	GET  /metrics                serving metrics snapshot (JSON, or
//	                             Prometheus text under Accept: text/plain)
//
// Every route declares its method, so a wrong-method request is a uniform
// 405 with an Allow header, and every response names its Content-Type.
func (s *Server) Handler() http.Handler { return Observed(s.log, s.mux) }

// Observed is the front both daemons put before their routes (tlsd's
// Handler and tlsrouter's): it accepts a log-safe X-Correlation-ID or
// generates one, echoes it on the response, threads it through the request
// context (CorrelationFrom), and writes one structured "http access" line
// per request to log (method, path, status, bytes, latency_ms,
// correlation_id). A nil log keeps the correlation contract and logs
// nothing.
func Observed(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		corr := sanitizeCorrelation(r.Header.Get(CorrelationHeader))
		if corr == "" {
			corr = NewCorrelationID()
		}
		w.Header().Set(CorrelationHeader, corr)
		r = r.WithContext(withCorrelation(r.Context(), corr))

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if log == nil {
			return
		}
		log.LogAttrs(r.Context(), slog.LevelInfo, "http access",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status()),
			slog.Int("bytes", sw.bytes),
			slog.Float64("latency_ms", ms(time.Since(start))),
			slog.String("correlation_id", corr))
	})
}

// statusWriter captures the response status and body size for the access
// log. It forwards Flush so SSE streams (served or proxied) still stream
// through it.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the logged status code (200 when the handler never wrote).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache/{digest}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", MetricsHandler("tlsd", "daemon", s.MetricsSnapshot))
	s.mux = mux
}

// MaxSpecBytes bounds a submission body; real specs are a few hundred bytes.
const MaxSpecBytes = 1 << 20

// DecodeSpec reads a submission body: one JSON object naming only JobSpec's
// fields, followed by nothing but whitespace. tlsd and tlsrouter both decode
// with it, so a body one of them rejects the other rejects too.
func DecodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, errors.New("unexpected data after the spec object")
	}
	return spec, nil
}

// WriteJSON writes v as the indented JSON response body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the {"error": ...} JSON body both daemons answer with.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retrySeconds renders a Retry-After duration as whole seconds (ceiling,
// minimum 1 — a zero Retry-After would mean "immediately", which is never
// what a rejection wants to say).
func retrySeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleSubmit admits a job. Responses:
//
//	200  digest hit on a completed job — the cached result body, verbatim
//	     (also the terminal response of a ?wait=1 submission)
//	202  admitted (or attached to an in-flight duplicate) — job status
//	400  invalid spec
//	410  ?wait=1 submission whose job failed — status with the failure
//	422  digest quarantined after repeated deterministic failures
//	     (Retry-After = remaining quarantine)
//	429  queue full, or the deadline provably can't be met (Retry-After
//	     computed from queue depth × observed mean service time)
//	503  draining
//
// Without ?wait=1 a submission is asynchronous and detaches the job: it
// runs to completion no matter who stays connected. With ?wait=1 the
// response blocks until the job is terminal, and the job is cancelled if
// every waiting client disconnects first (nobody would ever see the
// result).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, tier, err := s.Submit(spec, CorrelationFrom(r.Context()))
	hit := tier != ""
	var poisoned *PoisonedError
	var unmeetable *UnmeetableDeadlineError
	var full *QueueFullError
	switch {
	case err == nil:
	case errors.As(err, &full):
		w.Header().Set("Retry-After", retrySeconds(full.RetryAfter))
		WriteError(w, http.StatusTooManyRequests, "queue full (capacity %d); retry later", s.opts.QueueDepth)
		return
	case errors.As(err, &poisoned):
		w.Header().Set("Retry-After", retrySeconds(poisoned.RetryAfter))
		WriteError(w, http.StatusUnprocessableEntity, "%v; retry after the quarantine expires", poisoned)
		return
	case errors.As(err, &unmeetable):
		w.Header().Set("Retry-After", retrySeconds(unmeetable.RetryAfter))
		WriteError(w, http.StatusTooManyRequests, "%v", unmeetable)
		return
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "draining: admission stopped")
		return
	default:
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("X-Job-Id", j.ID())
	w.Header().Set("X-Job-Digest", j.Digest())
	if hit && j.State() == StateDone {
		// Content-addressed fast path: the stored body, byte-identical to
		// the run that produced it (and to tlssim -json for this spec).
		// X-Cache-Tier names where the bytes came from (memory, disk, or a
		// sibling replica's cache) so clients can assert hit provenance.
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("X-Cache-Tier", tier)
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.Result())
		return
	}
	if hit {
		w.Header().Set("X-Cache", "dedup")
	} else {
		w.Header().Set("X-Cache", "miss")
	}

	if r.URL.Query().Get("wait") == "1" {
		s.waitAndServe(w, r, j)
		return
	}
	// Asynchronous submission: the submitter wants the job to run whether
	// or not anyone stays connected.
	j.detach()
	WriteJSON(w, http.StatusAccepted, j.StatusAt(time.Now()))
}

// waitAndServe blocks a ?wait=1 submission until its job is terminal, then
// serves the result (200) or the failure status (410). A disconnect drops
// the registration; the last waiter leaving a non-detached job cancels it.
func (s *Server) waitAndServe(w http.ResponseWriter, r *http.Request, j *Job) {
	j.addWaiter()
	defer j.removeWaiter()
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// Client gone: nothing to write. removeWaiter cancels the job if
		// this was the last audience it had.
		return
	}
	if j.State() == StateDone {
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.Result())
		return
	}
	WriteJSON(w, http.StatusGone, j.StatusAt(time.Now()))
}

// handleCancel cancels a live job (DELETE /v1/jobs/{id}). Responses:
//
//	202  cancellation signalled — status (the terminal failure lands
//	     within one watchdog/cancellation-poll interval)
//	409  the job is already terminal — status, unchanged
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	switch j.State() {
	case StateDone, StateFailed:
		WriteJSON(w, http.StatusConflict, j.StatusAt(time.Now()))
		return
	}
	j.Cancel(errCancelRequested)
	WriteJSON(w, http.StatusAccepted, j.StatusAt(time.Now()))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", id)
		return nil
	}
	return j
}

// handleCacheGet serves a previously computed result body by digest — the
// cheap sibling-cache endpoint that a `tlsd -peers` sibling fetches from
// (GET /v1/cache/{digest}). It consults only this node's caches — a
// completed job in memory, then the breaker-gated persistent store, never
// its own siblings — and never computes, so probing a replica costs a
// lookup, not a simulation. Responses:
//
//	200  the stored result body (X-Cache-Tier: memory|disk, and the
//	     X-Job-Digest a fetching sibling checks)
//	404  this node has no stored result for the digest
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		WriteError(w, http.StatusNotFound, "no cached result for %q", digest)
		return
	}
	body, tier, ok := s.CachedResult(digest)
	if !ok {
		WriteError(w, http.StatusNotFound, "no cached result for %s", digest)
		return
	}
	w.Header().Set("X-Cache-Tier", tier)
	w.Header().Set("X-Job-Digest", digest)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// validDigest reports whether a path segment looks like a content address
// (64 lowercase hex characters) — anything else can't name a stored result
// and must never reach the store as a key.
func validDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.StatusAt(time.Now()))
	}
}

// handleResult serves the result document. Responses:
//
//	200  done — the document
//	202  still queued/running — job status
//	410  failed — job status with the structured failure
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	switch j.State() {
	case StateDone:
		w.Header().Set("X-Job-Digest", j.Digest())
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.Result())
	case StateFailed:
		WriteJSON(w, http.StatusGone, j.StatusAt(time.Now()))
	default:
		WriteJSON(w, http.StatusAccepted, j.StatusAt(time.Now()))
	}
}

// handleEvents streams the job's telemetry as Server-Sent Events: each
// protocol event as `event: telemetry` with a JSON data line, then a final
// `event: done` carrying the terminal status. Every event block carries the
// job's correlation ID in the SSE `id:` field, so a consumer can correlate a
// stream with the daemon's logs without the `data:` payloads (the telemetry
// JSON, unchanged from the library encoding) having to change. Late
// subscribers replay the full stream; the connection closes when the stream
// completes or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Job-Id", j.ID())
	w.Header().Set(CorrelationHeader, j.CorrelationID())
	w.WriteHeader(http.StatusOK)

	// The SSE id: field is set per block, not per connection, so every event
	// a client buffers or replays keeps its correlation stamp.
	stamp := "id: " + j.CorrelationID() + "\n"
	fmt.Fprintf(w, "%sevent: job\ndata: {\"id\":%q,\"correlation_id\":%q,\"digest\":%q}\n\n",
		stamp, j.ID(), j.CorrelationID(), j.Digest())
	flusher.Flush()

	sub := j.Events().Subscribe()
	defer sub.Cancel()
	enc := json.NewEncoder(sseData{w})
	for {
		evs, done := sub.Next()
		for i := range evs {
			w.Write([]byte(stamp))
			w.Write([]byte("event: telemetry\n"))
			enc.Encode(&evs[i]) // writes "data: {...}\n"
			w.Write([]byte("\n"))
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			st := j.StatusAt(time.Now())
			w.Write([]byte(stamp))
			w.Write([]byte("event: done\n"))
			enc.Encode(st)
			w.Write([]byte("\n"))
			flusher.Flush()
			return
		}
		select {
		case <-sub.Wait():
		case <-r.Context().Done():
			return
		}
	}
}

// sseData prefixes every JSON document with the SSE "data: " field name.
// json.Encoder terminates each document with '\n', completing the line.
type sseData struct{ w http.ResponseWriter }

func (d sseData) Write(p []byte) (int, error) {
	if _, err := d.w.Write([]byte("data: ")); err != nil {
		return 0, err
	}
	return d.w.Write(p)
}

// health is the /healthz document.
type health struct {
	Status  string       `json:"status"`
	Version version.Info `json:"version"`
	Jobs    uint64       `json:"jobs_submitted"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := s.counters.JobsSubmitted
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, health{Status: "ok", Version: version.Get(), Jobs: n})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// MetricsHandler serves /metrics for tlsd and tlsrouter alike, in the
// representation the client asked for: Prometheus text exposition when the
// Accept header names text/plain or the OpenMetrics type, the snapshot's
// JSON document otherwise (a browser's or curl's */* keeps getting JSON).
// The exposition is the always-1 <namespace>_build_info gauge carrying the
// build identity, then every prom-tagged field of the snapshot under
// <namespace>_; role names the process in the build_info HELP text.
func MetricsHandler[M any](namespace, role string, snapshot func() M) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !wantsProm(r.Header.Get("Accept")) {
			WriteJSON(w, http.StatusOK, snapshot())
			return
		}
		v := version.Get()
		w.Header().Set("Content-Type", telemetry.PromContentType)
		w.WriteHeader(http.StatusOK)
		p := telemetry.NewPromWriter(w)
		p.Gauge(namespace+"_build_info",
			"Build identity of the running "+role+"; the value is always 1.", 1,
			telemetry.PromLabel{Name: "module", Value: v.Module},
			telemetry.PromLabel{Name: "version", Value: v.Version},
			telemetry.PromLabel{Name: "revision", Value: v.Revision},
			telemetry.PromLabel{Name: "modified", Value: strconv.FormatBool(v.Modified)},
			telemetry.PromLabel{Name: "go", Value: v.Go})
		p.Struct(namespace+"_", snapshot())
		_ = p.Flush() // the status is sent; a write error only truncates this scrape
	}
}

// wantsProm reports whether an Accept header asks for Prometheus text
// exposition rather than the default JSON.
func wantsProm(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch strings.ToLower(mt) {
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// Interface checks: the fan-out sink must remain a telemetry emitter.
var _ telemetry.Emitter = (*telemetry.Fanout)(nil)
