package telemetry

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPromWriterFormat(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("jobs_total", "Jobs.", 3)
	p.Gauge("queue_depth", "Depth.", 2)
	p.Histogram("latency_micros", "Latency.", h.Snapshot(), PromLabel{"stage", "build"})
	p.Histogram("latency_micros", "Latency.", HistogramSnapshot{}, PromLabel{"stage", "sim"})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	want := strings.Join([]string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# HELP queue_depth Depth.",
		"# TYPE queue_depth gauge",
		"queue_depth 2",
		"# HELP latency_micros Latency.",
		"# TYPE latency_micros histogram",
		`latency_micros_bucket{stage="build",le="0"} 1`,
		`latency_micros_bucket{stage="build",le="1"} 2`,
		`latency_micros_bucket{stage="build",le="7"} 3`,
		`latency_micros_bucket{stage="build",le="+Inf"} 3`,
		`latency_micros_sum{stage="build"} 6`,
		`latency_micros_count{stage="build"} 3`,
		`latency_micros_bucket{stage="sim",le="+Inf"} 0`,
		`latency_micros_sum{stage="sim"} 0`,
		`latency_micros_count{stage="sim"} 0`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", got, want)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm rejects the writer's own output: %v", err)
	}
}

func TestPromWriterNeverEmitsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("ratio", "A ratio that divides by zero on a fresh daemon.", math.NaN())
	p.Gauge("rate", "Same, for infinities.", math.Inf(1))
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("writer leaked a non-finite value:\n%s", out)
	}
	if !strings.Contains(out, "ratio 0") || !strings.Contains(out, "rate 0") {
		t.Errorf("non-finite values not sanitized to 0:\n%s", out)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}
}

func TestPromWriterEscapesLabelsAndHelp(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("info", "line one\nline \\two", 1, PromLabel{"v", `a"b\c` + "\nd"})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP info line one\nline \\two`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `info{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}
}

func TestPromWriterRejectsRetypedFamily(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("x_total", "X.", 1)
	p.Gauge("x_total", "X again.", 2)
	if err := p.Flush(); err == nil {
		t.Error("redeclaring a family with a different type did not error")
	}
}

func TestLintPromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"nan value":          "# TYPE x gauge\nx NaN\n",
		"inf value":          "# TYPE x gauge\nx +Inf\n",
		"no type":            "orphan 1\n",
		"bad name":           "# TYPE 9x gauge\n9x 1\n",
		"bad label":          "# TYPE x gauge\nx{9l=\"v\"} 1\n",
		"unterminated label": "# TYPE x gauge\nx{l=\"v 1\n",
		"retyped family":     "# TYPE x gauge\n# TYPE x counter\nx 1\n",
		"unknown type":       "# TYPE x sparkline\nx 1\n",
		"non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 5\n",
		"inf bucket mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_sum 9\nh_count 5\n",
		"missing inf bucket": "# TYPE h histogram\nh_sum 9\nh_count 5\n",
		"bare histogram sample": "# TYPE h histogram\nh 1\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"interleaved families": "# TYPE a gauge\na{n=\"1\"} 1\n" +
			"# TYPE b gauge\nb{n=\"1\"} 1\na{n=\"2\"} 1\nb{n=\"2\"} 1\n",
	}
	for name, doc := range cases {
		if err := LintProm([]byte(doc)); err == nil {
			t.Errorf("%s: linter accepted malformed document:\n%s", name, doc)
		}
	}
}

func TestLintPromAcceptsValid(t *testing.T) {
	doc := "# A bare comment.\n" +
		"# HELP up Whether the target is up.\n# TYPE up gauge\nup 1\n" +
		"# TYPE reqs_total counter\nreqs_total{code=\"200\"} 10 1712000000\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 3.5\nh_count 2\n"
	if err := LintProm([]byte(doc)); err != nil {
		t.Errorf("linter rejected a valid document: %v", err)
	}
}

// TestLintPromFile lints an exposition document named by PROMLINT_FILE —
// the hook scripts/tlsd-smoke.sh uses to validate a live daemon's /metrics
// scrape with the in-repo linter. Skipped when the variable is unset.
func TestLintPromFile(t *testing.T) {
	path := os.Getenv("PROMLINT_FILE")
	if path == "" {
		t.Skip("PROMLINT_FILE not set (used by scripts/tlsd-smoke.sh)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if err := LintProm(data); err != nil {
		t.Fatalf("%s is not valid Prometheus text exposition: %v", path, err)
	}
}

type promTestBreaker struct {
	State string `prom:"state{state=closed|open} Breaker state (one-hot)."`
	Opens uint64 `prom:"opens_total Times the breaker opened."`
}

type promTestNode struct {
	URL     string          `prom:"{node}"`
	Up      bool            `prom:"up Whether the node is up."`
	Breaker promTestBreaker `prom:"breaker_"`
}

type promTestStore struct {
	Bytes int64 `prom:"size_bytes Bytes stored."`
}

type promTestCounters struct {
	Jobs uint64 `prom:"jobs_total Jobs run."`
}

type promTestMetrics struct {
	promTestCounters
	Ratio   float64           `prom:"hit_ratio Hit ratio."`
	Queue   HistogramSnapshot `prom:"stage_micros{stage=queue} Latency by stage."`
	Sim     HistogramSnapshot `prom:"stage_micros{stage=sim}"`
	Nodes   []promTestNode    `prom:"node_"`
	Store   *promTestStore    `prom:"store_"`
	Breaker *promTestBreaker  `prom:"breaker_"`
	Note    string            `prom:"-"`
	private int
}

type promTestUntagged struct {
	Depth int
}

// TestPromWriterStruct pins the tag-driven walker: counters, gauges and
// histograms, constant labels sharing a family, one-hot strings, embedded
// structs in place, per-element labels rendered family-major across a
// slice, and nil sections left out.
func TestPromWriterStruct(t *testing.T) {
	var h Histogram
	h.Observe(3)
	full := promTestMetrics{
		promTestCounters: promTestCounters{Jobs: 7},
		Ratio:            0.5,
		Queue:            h.Snapshot(),
		Nodes: []promTestNode{
			{URL: "a", Up: true, Breaker: promTestBreaker{State: "closed"}},
			{URL: "b", Breaker: promTestBreaker{State: "open", Opens: 2}},
		},
		Store:   &promTestStore{Bytes: 42},
		Breaker: &promTestBreaker{State: "open", Opens: 1},
		Note:    "json only",
	}
	cases := []struct {
		name string
		v    any
		want []string
		err  bool
	}{
		{name: "every field kind", v: &full, want: []string{
			"# HELP x_jobs_total Jobs run.",
			"# TYPE x_jobs_total counter",
			"x_jobs_total 7",
			"# HELP x_hit_ratio Hit ratio.",
			"# TYPE x_hit_ratio gauge",
			"x_hit_ratio 0.5",
			"# HELP x_stage_micros Latency by stage.",
			"# TYPE x_stage_micros histogram",
			`x_stage_micros_bucket{stage="queue",le="3"} 1`,
			`x_stage_micros_bucket{stage="queue",le="+Inf"} 1`,
			`x_stage_micros_sum{stage="queue"} 3`,
			`x_stage_micros_count{stage="queue"} 1`,
			`x_stage_micros_bucket{stage="sim",le="+Inf"} 0`,
			`x_stage_micros_sum{stage="sim"} 0`,
			`x_stage_micros_count{stage="sim"} 0`,
			"# HELP x_node_up Whether the node is up.",
			"# TYPE x_node_up gauge",
			`x_node_up{node="a"} 1`,
			`x_node_up{node="b"} 0`,
			"# HELP x_node_breaker_state Breaker state (one-hot).",
			"# TYPE x_node_breaker_state gauge",
			`x_node_breaker_state{node="a",state="closed"} 1`,
			`x_node_breaker_state{node="a",state="open"} 0`,
			`x_node_breaker_state{node="b",state="closed"} 0`,
			`x_node_breaker_state{node="b",state="open"} 1`,
			"# HELP x_node_breaker_opens_total Times the breaker opened.",
			"# TYPE x_node_breaker_opens_total counter",
			`x_node_breaker_opens_total{node="a"} 0`,
			`x_node_breaker_opens_total{node="b"} 2`,
			"# HELP x_store_size_bytes Bytes stored.",
			"# TYPE x_store_size_bytes gauge",
			"x_store_size_bytes 42",
			"# HELP x_breaker_state Breaker state (one-hot).",
			"# TYPE x_breaker_state gauge",
			`x_breaker_state{state="closed"} 0`,
			`x_breaker_state{state="open"} 1`,
			"# HELP x_breaker_opens_total Times the breaker opened.",
			"# TYPE x_breaker_opens_total counter",
			"x_breaker_opens_total 1",
		}},
		{name: "nil sections", v: promTestMetrics{}, want: []string{
			"# HELP x_jobs_total Jobs run.",
			"# TYPE x_jobs_total counter",
			"x_jobs_total 0",
			"# HELP x_hit_ratio Hit ratio.",
			"# TYPE x_hit_ratio gauge",
			"x_hit_ratio 0",
			"# HELP x_stage_micros Latency by stage.",
			"# TYPE x_stage_micros histogram",
			`x_stage_micros_bucket{stage="queue",le="+Inf"} 0`,
			`x_stage_micros_sum{stage="queue"} 0`,
			`x_stage_micros_count{stage="queue"} 0`,
			`x_stage_micros_bucket{stage="sim",le="+Inf"} 0`,
			`x_stage_micros_sum{stage="sim"} 0`,
			`x_stage_micros_count{stage="sim"} 0`,
		}},
		{name: "untagged field", v: promTestUntagged{Depth: 1}, err: true},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		p := NewPromWriter(&buf)
		p.Struct("x_", tc.v)
		err := p.Flush()
		if tc.err {
			if err == nil {
				t.Errorf("%s: walker accepted it:\n%s", tc.name, buf.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got, want := buf.String(), strings.Join(tc.want, "\n")+"\n"; got != want {
			t.Errorf("%s: exposition output:\n%s\nwant:\n%s", tc.name, got, want)
		}
		if err := LintProm(buf.Bytes()); err != nil {
			t.Errorf("%s: LintProm: %v", tc.name, err)
		}
	}
}
