package cluster

// The /metrics schema of both daemons, pinned whole: the sorted "# TYPE"
// lines, the label names of each family and the JSON key paths. The cluster
// package is the one that sees both daemons, so both pins live here. The
// lists were taken from the hand-written renderers that the tagged snapshot
// structs replaced; the few entries that differ from them carry a comment.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"subthreads/internal/cas"
	"subthreads/internal/service"
	"subthreads/internal/telemetry"
)

// scrape GETs /metrics from h with the given Accept header.
func scrape(t *testing.T, h http.Handler, accept string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics (Accept %q) = %d", accept, rec.Code)
	}
	return rec.Body.Bytes()
}

// promSchema returns an exposition's sorted "# TYPE" lines and, per family,
// its sorted label names (le excluded) as "family{a,b}".
func promSchema(doc []byte) (types, labels []string) {
	families := map[string]map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
			families[strings.Fields(line)[2]] = map[string]bool{}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, sfx); families[base] != nil {
				family = base
			}
		}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			for _, kv := range strings.Split(line[i+1:strings.LastIndexByte(line, '}')], ",") {
				if k := kv[:strings.IndexByte(kv, '=')]; k != "le" {
					families[family][k] = true
				}
			}
		}
	}
	for family, set := range families {
		var names []string
		for l := range set {
			names = append(names, l)
		}
		sort.Strings(names)
		labels = append(labels, family+"{"+strings.Join(names, ",")+"}")
	}
	sort.Strings(types)
	sort.Strings(labels)
	return types, labels
}

// jsonPaths returns the sorted key paths of a JSON document, "[]" standing
// for any array element. A histogram snapshot (an object with a "mean") is
// one leaf: its schema is telemetry's, not the daemon's.
func jsonPaths(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			if _, histogram := x["mean"]; histogram {
				return
			}
			for k, e := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				set[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range x {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", v)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// sameList reports each entry only one of got and want holds.
func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for _, x := range want {
		if !g[x] {
			t.Errorf("%s: missing %s", what, x)
		}
	}
	for _, x := range got {
		if !w[x] {
			t.Errorf("%s: unexpected %s", what, x)
		}
	}
}

// checkSchema scrapes both /metrics forms of h and compares them with the
// pinned lists.
func checkSchema(t *testing.T, h http.Handler, types, labels, paths []string) {
	t.Helper()
	prom := scrape(t, h, "text/plain")
	if err := telemetry.LintProm(prom); err != nil {
		t.Errorf("exposition fails lint: %v\n%s", err, prom)
	}
	gotTypes, gotLabels := promSchema(prom)
	sameList(t, "TYPE lines", gotTypes, types)
	sameList(t, "family labels", gotLabels, labels)
	sameList(t, "JSON key paths", jsonPaths(t, scrape(t, h, "")), paths)
}

// TestTlsdMetricsSchema pins the daemon's schema with every optional
// section present: a store (and so the breaker around it), after one job
// has run.
func TestTlsdMetricsSchema(t *testing.T) {
	store, err := cas.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("cas.Open: %v", err)
	}
	defer store.Close()
	s := service.New(service.Options{Workers: 1, QueueDepth: 4, Store: store})
	ts := httptest.NewServer(s.Handler())
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"benchmark":"STOCK LEVEL","txns":2,"warmup":1}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	ts.Close()
	// Drain, so the job's store writes have landed before the scrape.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	types := []string{
		"# TYPE tlsd_build_info gauge",
		"# TYPE tlsd_builder_builds_total counter",
		"# TYPE tlsd_builder_clones_total counter",
		"# TYPE tlsd_builder_evictions_total counter",
		"# TYPE tlsd_builder_loads_total counter",
		"# TYPE tlsd_builder_memory_hits_total counter",
		"# TYPE tlsd_builder_reference_memory_hits_total counter",
		"# TYPE tlsd_builder_reference_runs_total counter",
		"# TYPE tlsd_builder_resident_bytes gauge",
		"# TYPE tlsd_cache_deduped_total counter",
		"# TYPE tlsd_cache_disk_hit_latency_microseconds histogram",
		"# TYPE tlsd_cache_disk_hits_total counter",
		"# TYPE tlsd_cache_entries gauge",
		"# TYPE tlsd_cache_hit_latency_microseconds histogram",
		"# TYPE tlsd_cache_hit_ratio gauge",
		"# TYPE tlsd_cache_hits_total counter",
		"# TYPE tlsd_cache_misses_total counter",
		"# TYPE tlsd_cache_probe_hits_total counter",
		"# TYPE tlsd_cache_probes_total counter",
		"# TYPE tlsd_cache_remote_hit_latency_microseconds histogram",
		"# TYPE tlsd_cache_remote_failures_total counter",
		"# TYPE tlsd_cache_remote_hits_total counter",
		"# TYPE tlsd_cache_remote_misses_total counter",
		"# TYPE tlsd_cas_breaker_opens_total counter",
		"# TYPE tlsd_cas_breaker_short_circuits_total counter",
		"# TYPE tlsd_cas_breaker_state gauge",
		"# TYPE tlsd_cas_corrupt_total counter",
		"# TYPE tlsd_cas_entries gauge",
		"# TYPE tlsd_cas_eviction_total counter",
		"# TYPE tlsd_cas_hit_total counter",
		"# TYPE tlsd_cas_load_latency_microseconds histogram",
		"# TYPE tlsd_cas_miss_total counter",
		"# TYPE tlsd_cas_put_total counter",
		"# TYPE tlsd_cas_size_bytes gauge",
		"# TYPE tlsd_cas_store_latency_microseconds histogram",
		"# TYPE tlsd_job_cold_latency_microseconds histogram",
		"# TYPE tlsd_job_stage_latency_microseconds histogram",
		"# TYPE tlsd_jobs_cancelled_total counter",
		"# TYPE tlsd_jobs_completed_total counter",
		"# TYPE tlsd_jobs_failed_total counter",
		"# TYPE tlsd_jobs_forked_total counter",
		"# TYPE tlsd_jobs_in_flight gauge",
		"# TYPE tlsd_jobs_rejected_deadline_total counter",
		"# TYPE tlsd_jobs_rejected_poisoned_total counter",
		"# TYPE tlsd_jobs_rejected_total counter",
		"# TYPE tlsd_jobs_replayed_total counter",
		"# TYPE tlsd_jobs_submitted_total counter",
		"# TYPE tlsd_jobs_timeout_total counter",
		"# TYPE tlsd_poisoned_digests gauge",
		"# TYPE tlsd_queue_capacity gauge",
		"# TYPE tlsd_queue_depth gauge",
		"# TYPE tlsd_uptime_seconds gauge",
		"# TYPE tlsd_workers gauge",
	}
	labels := []string{
		"tlsd_build_info{go,modified,module,revision,version}",
		"tlsd_builder_builds_total{}",
		"tlsd_builder_clones_total{}",
		"tlsd_builder_evictions_total{}",
		"tlsd_builder_loads_total{}",
		"tlsd_builder_memory_hits_total{}",
		"tlsd_builder_reference_memory_hits_total{}",
		"tlsd_builder_reference_runs_total{}",
		"tlsd_builder_resident_bytes{}",
		"tlsd_cache_deduped_total{}",
		"tlsd_cache_disk_hit_latency_microseconds{}",
		"tlsd_cache_disk_hits_total{}",
		"tlsd_cache_entries{}",
		"tlsd_cache_hit_latency_microseconds{}",
		"tlsd_cache_hit_ratio{}",
		"tlsd_cache_hits_total{}",
		"tlsd_cache_misses_total{}",
		"tlsd_cache_probe_hits_total{}",
		"tlsd_cache_probes_total{}",
		"tlsd_cache_remote_hit_latency_microseconds{}",
		"tlsd_cache_remote_failures_total{}",
		"tlsd_cache_remote_hits_total{}",
		"tlsd_cache_remote_misses_total{}",
		"tlsd_cas_breaker_opens_total{}",
		"tlsd_cas_breaker_short_circuits_total{}",
		"tlsd_cas_breaker_state{state}",
		"tlsd_cas_corrupt_total{}",
		"tlsd_cas_entries{}",
		"tlsd_cas_eviction_total{}",
		"tlsd_cas_hit_total{}",
		"tlsd_cas_load_latency_microseconds{}",
		"tlsd_cas_miss_total{}",
		"tlsd_cas_put_total{}",
		"tlsd_cas_size_bytes{}",
		"tlsd_cas_store_latency_microseconds{}",
		"tlsd_job_cold_latency_microseconds{}",
		"tlsd_job_stage_latency_microseconds{stage}",
		"tlsd_jobs_cancelled_total{}",
		"tlsd_jobs_completed_total{}",
		"tlsd_jobs_failed_total{}",
		"tlsd_jobs_forked_total{}",
		"tlsd_jobs_in_flight{}",
		"tlsd_jobs_rejected_deadline_total{}",
		"tlsd_jobs_rejected_poisoned_total{}",
		"tlsd_jobs_rejected_total{}",
		"tlsd_jobs_replayed_total{}",
		"tlsd_jobs_submitted_total{}",
		"tlsd_jobs_timeout_total{}",
		"tlsd_poisoned_digests{}",
		"tlsd_queue_capacity{}",
		"tlsd_queue_depth{}",
		"tlsd_uptime_seconds{}",
		"tlsd_workers{}",
	}
	paths := []string{
		"build_latency_micros",
		"builder",
		"builder.builds",
		"builder.clones",
		"builder.evictions",
		"builder.loads",
		"builder.memory_hits",
		"builder.reference_memory_hits",
		"builder.reference_runs",
		"builder.resident_bytes",
		"cache_disk_hits",
		"cache_entries",
		"cache_hit_latency_micros",
		"cache_hit_ratio",
		"cache_hits",
		"cache_misses",
		"cache_probe_hits",
		"cache_probes",
		"cache_remote_failures",
		"cache_remote_hits",
		"cache_remote_misses",
		"cas",
		"cas.bytes",
		"cas.corrupt",
		"cas.entries",
		"cas.evictions",
		"cas.hits",
		"cas.load_micros",
		"cas.misses",
		"cas.puts",
		"cas.store_micros",
		"cas_breaker",
		"cas_breaker.consecutive_failures",
		"cas_breaker.opens",
		"cas_breaker.short_circuits",
		"cas_breaker.state",
		"cold_latency_micros",
		"deduped_in_flight",
		"disk_hit_latency_micros",
		"in_flight",
		"jobs_cancelled",
		"jobs_completed",
		"jobs_failed",
		"jobs_forked",
		"jobs_rejected_deadline",
		"jobs_rejected_poisoned",
		"jobs_rejected_queue_full",
		"jobs_replayed",
		"jobs_submitted",
		"jobs_timed_out",
		"poisoned_digests",
		"queue_capacity",
		"queue_depth",
		"queue_wait_micros",
		"remote_hit_latency_micros",
		"render_latency_micros",
		"sim_latency_micros",
		"uptime_seconds",
		"workers",
	}
	checkSchema(t, s.Handler(), types, labels, paths)
}

// TestRouterMetricsSchema pins the router's schema over two workers, so
// every per-node family has more than one series.
func TestRouterMetricsSchema(t *testing.T) {
	fleet := newTestFleet(t, 2)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}

	types := []string{
		"# TYPE tlsrouter_build_info gauge",
		"# TYPE tlsrouter_failovers_total counter",
		"# TYPE tlsrouter_jobs_routed_total counter",
		"# TYPE tlsrouter_node_alive gauge",
		"# TYPE tlsrouter_node_errors_total counter",
		"# TYPE tlsrouter_node_load gauge",
		"# TYPE tlsrouter_node_requests_total counter",
		"# TYPE tlsrouter_nodes gauge",
		"# TYPE tlsrouter_nodes_alive gauge",
		"# TYPE tlsrouter_probe_failures_total counter",
		"# TYPE tlsrouter_probes_total counter",
		"# TYPE tlsrouter_proxy_latency_microseconds histogram",
		"# TYPE tlsrouter_ring_rebalances_total counter",
		"# TYPE tlsrouter_unroutable_total counter",
		"# TYPE tlsrouter_uptime_seconds gauge",
	}
	labels := []string{
		"tlsrouter_build_info{go,modified,module,revision,version}", // +modified: tlsd's handler serves both
		"tlsrouter_failovers_total{}",
		"tlsrouter_jobs_routed_total{}",
		"tlsrouter_node_alive{node}",
		"tlsrouter_node_errors_total{node}",
		"tlsrouter_node_load{node}",
		"tlsrouter_node_requests_total{node}",
		"tlsrouter_nodes_alive{}",
		"tlsrouter_nodes{}",
		"tlsrouter_probe_failures_total{}",
		"tlsrouter_probes_total{}",
		"tlsrouter_proxy_latency_microseconds{}",
		"tlsrouter_ring_rebalances_total{}",
		"tlsrouter_unroutable_total{}",
		"tlsrouter_uptime_seconds{}",
	}
	paths := []string{
		"failovers",
		"jobs_routed",
		"nodes",
		"nodes[].alive",
		"nodes[].errors",
		"nodes[].load",
		"nodes[].requests",
		"nodes[].url",
		"probe_failures",
		"probes",
		"proxy_latency_micros",
		"ring_rebalances",
		"unroutable",
		"uptime_seconds",
	}
	checkSchema(t, rt.Handler(), types, labels, paths)
}
