package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"subthreads/internal/inject"
)

// Client is a minimal retrying client for the daemon's job API, used by the
// e2e and disk-fault suites. It submits synchronously (?wait=1), classifies
// responses into permanent and retryable failures, and retries the latter
// under a bounded budget with exponential backoff, seeded jitter, and
// respect for the server's Retry-After — the well-behaved client the
// service's backpressure design assumes.
type Client struct {
	// Base is the server's base URL (no trailing slash), e.g. the
	// httptest.Server.URL in tests or http://localhost:8080 in production.
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retries bounds the retry budget: up to Retries re-submissions after
	// the first attempt (default 4).
	Retries int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it (default 5s). A server Retry-After larger than the computed
	// backoff wins.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the backoff jitter, so tests get reproducible retry
	// timing. 0 means seed 1.
	Seed uint64

	mu  sync.Mutex
	rng uint64
	up  bool
}

// PermanentError is a terminal client outcome: retrying cannot help
// (invalid spec, quarantined digest, retry budget exhausted on failures).
type PermanentError struct {
	Status int
	Msg    string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("service client: permanent failure (HTTP %d): %s", e.Status, e.Msg)
}

// ErrAlreadyTerminal reports that a DELETE-cancel found the job already
// terminal (HTTP 409): the cancellation changed nothing, but the job's
// outcome — done or failed — is settled and fetchable. Callers that only
// wanted the job to stop can treat it as success.
var ErrAlreadyTerminal = errors.New("service client: job already terminal; cancel changed nothing")

// Result is one successful synchronous submission: the body plus the serving
// metadata the daemon stamps on the response, so callers such as the cluster
// tests can assert hit provenance without re-parsing logs.
type Result struct {
	// Body is the result document, byte-identical to `tlssim -json`.
	Body []byte
	// Cache is the X-Cache response header: "hit", "dedup", or "miss"
	// ("miss" and "dedup" submissions still block until the run finishes).
	Cache string
	// Tier is the X-Cache-Tier header of a hit: "memory", "disk", or
	// "remote" ("" on a miss).
	Tier string
	// CorrelationID is the X-Correlation-ID echoed (or generated) by the
	// server that answered.
	CorrelationID string
	// Attempts counts submissions performed, including the successful one.
	Attempts int
}

// Run submits spec and blocks until it has the result body or a permanent
// failure. The returned bytes are byte-identical to `tlssim -json` for the
// same spec. See Do for the full result metadata.
func (c *Client) Run(ctx context.Context, spec JobSpec) ([]byte, error) {
	res, err := c.Do(ctx, spec)
	if err != nil {
		return nil, err
	}
	return res.Body, nil
}

// Do submits spec and blocks until it has the result or a permanent
// failure, retrying retryable outcomes (queue full, draining, unmeetable
// deadline, failed runs — a failed job's digest is released, so a retry is
// a fresh attempt) within the budget.
func (c *Client) Do(ctx context.Context, spec JobSpec) (*Result, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service client: encode spec: %w", err)
	}
	retries := c.Retries
	if retries <= 0 {
		retries = 4
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, retryAfter, retryable, err := c.once(ctx, payload)
		if err == nil {
			res.Attempts = attempt + 1
			return res, nil
		}
		lastErr = err
		if !retryable || attempt >= retries {
			return nil, lastErr
		}
		delay := c.backoff(attempt)
		if retryAfter > delay {
			delay = retryAfter
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(delay):
		}
	}
}

// Cancel requests cancellation of a live job (DELETE /v1/jobs/{id}). nil
// means the cancellation was signalled (HTTP 202); ErrAlreadyTerminal means
// the job had already finished (HTTP 409) — by the daemon's contract the
// job's state is settled either way, so callers that only care that the job
// is no longer running can treat both as success.
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.Base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("service client: %w", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	switch resp.StatusCode {
	case http.StatusAccepted:
		return nil
	case http.StatusConflict:
		return ErrAlreadyTerminal
	default:
		return &PermanentError{Status: resp.StatusCode, Msg: compact(data)}
	}
}

// http returns the underlying HTTP client.
func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// once performs a single synchronous submission.
func (c *Client) once(ctx context.Context, payload []byte) (res *Result, retryAfter time.Duration, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/v1/jobs?wait=1", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		// Transport errors (daemon restarting, connection refused) are the
		// canonical retryable failure.
		return nil, 0, true, fmt.Errorf("service client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, true, fmt.Errorf("service client: read response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return &Result{
			Body:          data,
			Cache:         resp.Header.Get("X-Cache"),
			Tier:          resp.Header.Get("X-Cache-Tier"),
			CorrelationID: resp.Header.Get(CorrelationHeader),
		}, 0, false, nil
	case http.StatusBadRequest, http.StatusUnprocessableEntity:
		// Invalid or quarantined: identical resubmissions keep failing
		// until something else changes; don't spend the budget on them.
		return nil, 0, false, &PermanentError{Status: resp.StatusCode, Msg: compact(data)}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGone, http.StatusAccepted:
		// Backpressure, drain, a failed run (its digest was released), or
		// an async-shaped response: all worth retrying.
		return nil, headerRetryAfter(resp), true,
			fmt.Errorf("service client: retryable failure (HTTP %d): %s", resp.StatusCode, compact(data))
	default:
		return nil, 0, false, &PermanentError{Status: resp.StatusCode, Msg: compact(data)}
	}
}

// backoff computes the delay before retry #attempt: exponential from
// BaseDelay, capped at MaxDelay, scaled by a seeded jitter in [0.5, 1.5).
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	c.mu.Lock()
	if !c.up {
		c.rng = c.Seed
		if c.rng == 0 {
			c.rng = 1
		}
		c.up = true
	}
	r := inject.SplitMix64(&c.rng)
	c.mu.Unlock()
	jitter := 0.5 + float64(r%1024)/1024
	return time.Duration(float64(d) * jitter)
}

// headerRetryAfter parses a whole-seconds Retry-After header (the only form
// the daemon emits); 0 when absent or malformed.
func headerRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// compact flattens an error-response body into one log-friendly line.
func compact(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := string(data)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
