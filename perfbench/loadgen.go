package main

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"subthreads/internal/service"
)

// The serve workload's open-loop generator. Every request has a due time
// fixed before the window starts, and its latency is measured from that due
// time, so a stall delays (and is charged to) every request behind it. Only
// nproc goroutines and nproc connections drive the load. Simulations are
// submitted without ?wait=1 and their results polled, so a hit never waits in
// the generator's own connection pool behind a running simulation.

// request is one scheduled operation and, once done, its outcome.
type request struct {
	class  string // hit, disk, fork, novel
	step   int    // 0 = main window, 1.. = ladder steps
	spec   []byte
	digest string
	due    time.Time
	sent   time.Time
	done   time.Time
	jobID  string
	body   []byte
	err    string
	req    uint64 // span request id
}

func (r *request) latency() time.Duration { return r.done.Sub(r.due) }

// task is a request to send or a job to poll, at time at.
type task struct {
	at   time.Time
	poll bool
	r    *request
}

type taskHeap []task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// pollEvery is the result-poll cadence for one outstanding simulation; it
// stretches with the number outstanding so polling stays a small share of
// the load when a ladder step builds a backlog.
const pollEvery = 10 * time.Millisecond

// openLoop sends reqs (sorted by due time) against base with nproc
// goroutines and returns once every request has finished or failed.
type openLoop struct {
	base   string
	client *http.Client
	rec    *recorder

	mu          sync.Mutex
	tasks       taskHeap
	pending     int // requests not yet finished
	outstanding int // simulations submitted, result not yet received
	late        []float64
	firstBody   map[string][32]byte // digest -> hash of the first body served
	mismatches  []string
}

func runOpenLoop(base string, client *http.Client, rec *recorder, workers int, reqs []*request, firstBody map[string][32]byte) *openLoop {
	l := &openLoop{base: base, client: client, rec: rec, firstBody: firstBody, pending: len(reqs)}
	for _, r := range reqs {
		l.tasks = append(l.tasks, task{at: r.due, r: r})
	}
	heap.Init(&l.tasks)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			l.work()
		}()
	}
	wg.Wait()
	return l
}

func (l *openLoop) work() {
	for {
		l.mu.Lock()
		if l.pending == 0 {
			l.mu.Unlock()
			return
		}
		if len(l.tasks) == 0 {
			// Only polls of the other worker's submissions remain to be
			// scheduled; it pushes them when its current request ends.
			l.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		t := heap.Pop(&l.tasks).(task)
		l.mu.Unlock()
		if d := time.Until(t.at); d > 0 {
			time.Sleep(d)
		}
		if t.poll {
			l.poll(t.r)
		} else {
			l.send(t.r)
		}
	}
}

// finish marks r done (successfully or not).
func (l *openLoop) finish(r *request, sim bool) {
	l.mu.Lock()
	l.pending--
	if sim {
		l.outstanding--
	}
	l.mu.Unlock()
}

func (l *openLoop) schedulePoll(r *request) {
	l.mu.Lock()
	every := pollEvery * time.Duration(max(1, l.outstanding/2))
	heap.Push(&l.tasks, task{at: time.Now().Add(every), poll: true, r: r})
	l.mu.Unlock()
}

func (l *openLoop) send(r *request) {
	r.sent = time.Now()
	l.mu.Lock()
	l.late = append(l.late, msOf(r.sent.Sub(r.due)))
	l.mu.Unlock()
	resp, err := l.client.Post(l.base+"/v1/jobs", "application/json", bytes.NewReader(r.spec))
	if err != nil {
		r.err = err.Error()
		l.finish(r, false)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	l.rec.add("http POST /v1/jobs "+r.class, r.req, r.sent, end)
	switch {
	case err != nil:
		r.err = err.Error()
		l.finish(r, false)
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		r.err = fmt.Sprintf("%s: %s", resp.Status, trimErr(body))
		l.finish(r, false)
	case answeredFrom(resp) != wantTier[r.class]:
		r.err = fmt.Sprintf("answered from %s, want %s", tierName(answeredFrom(resp)), tierName(wantTier[r.class]))
		l.finish(r, false)
	case resp.StatusCode == http.StatusOK:
		r.done, r.body = end, body
		l.checkBody(r)
		l.finish(r, false)
	default: // 202: queued as a new job; poll for its result
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			r.err = fmt.Sprintf("202 without a job id: %s", trimErr(body))
			l.finish(r, false)
			return
		}
		r.jobID = st.ID
		l.mu.Lock()
		l.outstanding++
		l.mu.Unlock()
		l.schedulePoll(r)
	}
}

// wantTier is the cache tier each class must be answered from. Fork
// variants and novel specs are new to the daemon, so they must be queued as
// jobs rather than answered from any tier.
var wantTier = map[string]string{"hit": service.TierMemory, "disk": service.TierDisk}

// answeredFrom is the cache tier (X-Cache-Tier) a submission was answered
// from, or "" when it was queued as a new job.
func answeredFrom(resp *http.Response) string {
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	return resp.Header.Get("X-Cache-Tier")
}

func tierName(tier string) string {
	if tier == "" {
		return "a new job"
	}
	return "the " + tier + " tier"
}

func (l *openLoop) poll(r *request) {
	start := time.Now()
	resp, err := l.client.Get(l.base + "/v1/jobs/" + r.jobID + "/result")
	if err != nil {
		r.err = err.Error()
		l.finish(r, true)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	l.rec.add("http GET result", r.req, start, end)
	switch {
	case err != nil:
		r.err = err.Error()
		l.finish(r, true)
	case resp.StatusCode == http.StatusOK:
		r.done, r.body = end, body
		l.checkBody(r)
		l.finish(r, true)
	case resp.StatusCode == http.StatusAccepted:
		l.schedulePoll(r)
	default:
		r.err = fmt.Sprintf("%s: %s", resp.Status, trimErr(body))
		l.finish(r, true)
	}
}

// checkBody holds every body to the first one served for its digest.
func (l *openLoop) checkBody(r *request) {
	sum := sha256.Sum256(r.body)
	l.mu.Lock()
	defer l.mu.Unlock()
	first, ok := l.firstBody[r.digest]
	if !ok {
		l.firstBody[r.digest] = sum
		return
	}
	if first != sum {
		r.err = "body differs from the first body served for its digest"
	}
}
