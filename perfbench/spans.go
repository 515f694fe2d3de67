package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one request (one benchmark pass, one HTTP request, one replayed
// prefix group) share req; parent is the id of the enclosing span (0 at the
// top).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newReq returns a fresh request id.
func (r *recorder) newReq() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// do runs fn inside a span named name and returns the span's id (0 when
// untraced) so callers can parent nested spans on it.
func (r *recorder) do(name string, req, parent uint64, fn func(id uint64)) {
	if r == nil {
		fn(0)
		return
	}
	id := r.next.Add(1)
	start := time.Since(r.t0)
	fn(id)
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	r.mu.Unlock()
}

// add records an already-timed span (HTTP round trips time themselves).
func (r *recorder) add(name string, req uint64, start, end time.Time) {
	if r == nil {
		return
	}
	id := r.next.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Req: req, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// durations returns the durations of every span named name, in
// milliseconds.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write saves every span as JSON, sorted by start time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
