package service

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// DebugHandler returns the daemon's diagnostics surface, served on an
// opt-in address separate from the API (tlsd -debug-addr) so profiling can
// never be reached through the public port:
//
//	GET /debug/pprof/...     the standard net/http/pprof profiles
//	GET /debug/requests      snapshot of queued and running jobs
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	return mux
}

// debugRequest is one in-flight job in the /debug/requests snapshot.
type debugRequest struct {
	ID            string `json:"id"`
	CorrelationID string `json:"correlation_id"`
	Digest        string `json:"digest"`
	State         State  `json:"state"`
	// Stage is the pipeline segment the job is currently in (queue, build,
	// sim, render); StageElapsedMS is how long it has been there.
	Stage          string  `json:"stage"`
	StageElapsedMS float64 `json:"stage_elapsed_ms"`
	// ElapsedMS is total time since admission.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleDebugRequests snapshots every non-terminal job: what it is, where in
// the pipeline it is, and for how long — the first question an operator asks
// of a daemon that looks stuck.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	reqs := make([]debugRequest, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateQueued || j.state == StateRunning {
			reqs = append(reqs, debugRequest{
				ID:             j.id,
				CorrelationID:  j.corr,
				Digest:         j.res.Digest,
				State:          j.state,
				Stage:          j.stage.String(),
				StageElapsedMS: ms(now.Sub(j.stageFrom)),
				ElapsedMS:      ms(now.Sub(j.submitted)),
			})
		}
		j.mu.Unlock()
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].ID < reqs[b].ID })
	WriteJSON(w, http.StatusOK, struct {
		InFlight int            `json:"in_flight"`
		Jobs     []debugRequest `json:"jobs"`
	}{len(reqs), reqs})
}
