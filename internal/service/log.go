package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"strconv"
	"sync/atomic"
)

// CorrelationHeader is the HTTP request/response header carrying the
// correlation ID. A client may supply one (any log-safe token up to 128
// bytes); otherwise the daemon generates one. The ID is echoed on every
// response, stamped on every SSE event of the job the request created, and
// attached to every access and job-lifecycle log line — it never appears in
// a result body, which stays byte-identical to `tlssim -json`.
const CorrelationHeader = "X-Correlation-ID"

// corrFallback numbers correlation IDs if crypto/rand ever fails.
var corrFallback atomic.Uint64

// NewCorrelationID returns a fresh 16-hex-character correlation ID.
func NewCorrelationID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "corr-" + strconv.FormatUint(corrFallback.Add(1), 10)
	}
	return hex.EncodeToString(b[:])
}

// newJobID returns a fresh job ID, drawn like a correlation ID, so the jobs
// of every tlsd behind one router have distinct IDs.
func newJobID() string { return "job-" + NewCorrelationID() }

// sanitizeCorrelation returns the client-supplied ID if it is log-safe —
// non-empty, at most 128 bytes, and limited to [A-Za-z0-9._:-] so a header
// can't inject log lines or path traversal into flight-record names — and
// "" otherwise (the caller then generates one).
func sanitizeCorrelation(s string) string {
	if len(s) == 0 || len(s) > 128 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return ""
		}
	}
	return s
}

// corrKey keys the correlation ID in a request context.
type corrKey struct{}

func withCorrelation(ctx context.Context, corr string) context.Context {
	return context.WithValue(ctx, corrKey{}, corr)
}

// CorrelationFrom returns the request's correlation ID ("" outside
// Observed).
func CorrelationFrom(ctx context.Context) string {
	corr, _ := ctx.Value(corrKey{}).(string)
	return corr
}

// jlog emits one job-lifecycle log line. A nil logger — the library default,
// Options.Logger unset — reduces every logging site to this one branch, so
// the disabled-observability path stays allocation-free.
func (s *Server) jlog(level slog.Level, msg string, attrs ...slog.Attr) {
	if s.log == nil {
		return
	}
	s.log.LogAttrs(context.Background(), level, msg, attrs...)
}
