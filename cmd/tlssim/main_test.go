package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"subthreads/internal/service"
)

// resolveArgs resolves a tlssim command line the way run does.
func resolveArgs(t *testing.T, args []string) (*service.Resolved, error) {
	t.Helper()
	o, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v", args, err)
	}
	return o.spec.Resolve()
}

// resolveJSON resolves a tlsd request body the way the daemon does.
func resolveJSON(t *testing.T, body string) (*service.Resolved, error) {
	t.Helper()
	var js service.JobSpec
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return js.Resolve()
}

// shellSplit splits line into words with a real POSIX shell: the test of
// whether a printed repro line pastes back.
func shellSplit(t *testing.T, line string) []string {
	t.Helper()
	out, err := exec.Command("sh", "-c", "set -- "+line+`; for a in "$@"; do printf '%s\0' "$a"; done`).Output()
	if err != nil {
		t.Fatalf("sh %q: %v", line, err)
	}
	return strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
}

// TestUsageErrorsMatchTlsd: every spec tlsd rejects with a 400, tlssim
// rejects as a usage error (exit 2) with the same message.
func TestUsageErrorsMatchTlsd(t *testing.T) {
	for _, c := range []struct {
		args []string
		body string
	}{
		{[]string{"-warmup", "-1"}, `{"benchmark":"NEW ORDER","warmup":-1}`},
		{[]string{"-txns", "-1"}, `{"benchmark":"NEW ORDER","txns":-1}`},
		{[]string{"-opt", "9"}, `{"benchmark":"NEW ORDER","opt":9}`},
		{[]string{"-opt", "-1"}, `{"benchmark":"NEW ORDER","opt":-1}`},
		{[]string{"-subthreads", "100"}, `{"benchmark":"NEW ORDER","subthreads":100}`},
		{[]string{"-subthreads", "-1"}, `{"benchmark":"NEW ORDER","subthreads":-1}`},
		{[]string{"-benchmark", "NO SUCH"}, `{"benchmark":"NO SUCH"}`},
		{[]string{"-experiment", "WARP"}, `{"benchmark":"NEW ORDER","experiment":"WARP"}`},
		{[]string{"-overflow", "explode"}, `{"benchmark":"NEW ORDER","overflow":"explode"}`},
		{[]string{"-inject", "gibberish"}, `{"benchmark":"NEW ORDER","inject":"gibberish"}`},
		{[]string{"-inject", "faults=18446744073709551615"}, `{"benchmark":"NEW ORDER","inject":"faults=18446744073709551615"}`},
	} {
		_, want := resolveJSON(t, c.body)
		if want == nil {
			t.Fatalf("tlsd accepts %s", c.body)
		}
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("tlssim %q exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if got := stderr.String(); got != "tlssim: "+want.Error()+"\n" {
			t.Errorf("tlssim %q stderr %q, want tlsd's message %q", c.args, got, want.Error())
		}
	}

	// Malformed command lines are usage errors too, including a name whose
	// space was not quoted and a negative profile length, which exits
	// before anything is built or written.
	profile := filepath.Join(t.TempDir(), "p.json")
	for _, args := range [][]string{{"-no-such-flag"}, {"-benchmark", "NEW", "ORDER"},
		{"-profile", "-1", "-profile-out", profile}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("tlssim %q exit %d, want 2", args, code)
		}
	}
	if _, err := os.Stat(profile); !os.IsNotExist(err) {
		t.Errorf("a rejected command line wrote %s (stat: %v)", profile, err)
	}
}

// TestFlagsResolveLikeJobSpec: a flag left out resolves as the JobSpec field
// left out, and each flag as the field it fills.
func TestFlagsResolveLikeJobSpec(t *testing.T) {
	for _, c := range []struct {
		args []string
		body string
	}{
		{nil, `{"benchmark":"NEW ORDER"}`},
		// JobSpec reads txns 0 as omitted; so does tlssim.
		{[]string{"-txns", "0"}, `{"benchmark":"NEW ORDER","txns":0}`},
		{[]string{"-experiment", "NO SUB-THREAD"}, `{"benchmark":"NEW ORDER","experiment":"NO SUB-THREAD"}`},
		{[]string{"-benchmark", "PAYMENT", "-txns", "3", "-warmup", "0", "-seed", "7", "-opt", "0",
			"-paper", "-subthreads", "4", "-spacing", "2500", "-overflow", "squash", "-paranoid",
			"-inject", "seed=2,faults=3,window=1000", "-watchdog-cycles", "9000", "-max-cycles", "123456"},
			`{"benchmark":"PAYMENT","txns":3,"warmup":0,"seed":7,"opt":0,"paper":true,"subthreads":4,
			"spacing":2500,"overflow":"squash","paranoid":true,"inject":"seed=2,faults=3,window=1000",
			"watchdog_cycles":9000,"max_cycles":123456}`},
	} {
		got, err := resolveArgs(t, c.args)
		if err != nil {
			t.Fatalf("tlssim %q: %v", c.args, err)
		}
		want, err := resolveJSON(t, c.body)
		if err != nil {
			t.Fatalf("tlsd %s: %v", c.body, err)
		}
		if got.Digest != want.Digest {
			t.Errorf("tlssim %q digest %s, tlsd %s digest %s", c.args, got.Digest[:12], c.body, want.Digest[:12])
		}
	}
}

// TestReproCommandResolvesToSameDigest: a job's printed repro line, pasted
// into a shell and parsed by tlssim, names the job's exact simulation. The
// specs between them set every digest field.
func TestReproCommandResolvesToSameDigest(t *testing.T) {
	for _, body := range []string{
		`{"benchmark":"NEW ORDER"}`,
		`{"benchmark":"DELIVERY OUTER","experiment":"NO SUB-THREAD","txns":3,"warmup":0,"seed":7,"opt":1}`,
		`{"benchmark":"STOCK LEVEL","paper":true,"subthreads":4,"spacing":10000,"overflow":"squash"}`,
		`{"benchmark":"NEW ORDER 150","experiment":"PREDICTOR","overflow":"stall","paranoid":true,
		  "inject":"seed=3,faults=10,window=60000","max_cycles":5000000}`,
		`{"benchmark":"NEW ORDER","txns":3,"warmup":1,"inject":"seed=1,faults=5,window=60000","watchdog_cycles":2000}`,
		`{"benchmark":"ORDER STATUS","watchdog_cycles":77,"max_cycles":88,"timeout_ms":5000}`,
	} {
		r, err := resolveJSON(t, body)
		if err != nil {
			t.Fatalf("tlsd %s: %v", body, err)
		}
		words := shellSplit(t, r.ReproCommand())
		if len(words) < 3 || strings.Join(words[:3], " ") != "go run ./cmd/tlssim" {
			t.Fatalf("repro %q does not run tlssim", r.ReproCommand())
		}
		got, err := resolveArgs(t, words[3:])
		if err != nil {
			t.Fatalf("repro %q: %v", r.ReproCommand(), err)
		}
		if got.Digest != r.Digest {
			t.Errorf("repro %q resolves to %s, job is %s", r.ReproCommand(), got.Digest[:12], r.Digest[:12])
		}
	}
}

// TestFailureReproPastesBack: a failed run exits 1 and prints a repro line
// that splits back into its own arguments.
func TestFailureReproPastesBack(t *testing.T) {
	args := []string{"-benchmark", "NEW ORDER", "-txns", "3", "-warmup", "1",
		"-inject", "seed=1,faults=5,window=60000", "-watchdog-cycles", "2000"}
	var stderr bytes.Buffer
	if code := run(args, io.Discard, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	msg := strings.TrimSpace(stderr.String())
	if !strings.Contains(msg, "watchdog") {
		t.Errorf("stderr %q does not name the watchdog", msg)
	}
	_, line, ok := strings.Cut(msg, "| repro: ")
	if !ok {
		t.Fatalf("stderr %q carries no repro", msg)
	}
	want := append([]string{"go", "run", "./cmd/tlssim"}, args...)
	if got := shellSplit(t, line); !reflect.DeepEqual(got, want) {
		t.Errorf("repro %q splits into %q, want %q", line, got, want)
	}
}

// TestOutputsPinned pins, by SHA-256, the files the folded run commands
// wrote and the -json document: the telemetry trio of the untuned NEW ORDER
// run, the §3.1 profile document, and one measurement.
func TestOutputsPinned(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, c := range []struct {
		args   []string
		stdout string            // want hash of stdout ("" = unchecked)
		files  map[string]string // output file -> want hash
	}{
		{
			args: []string{"-benchmark", "NEW ORDER", "-txns", "4", "-warmup", "1", "-opt", "0",
				"-trace-out", path("t.json"), "-metrics-out", path("m.json"), "-events-out", path("e.jsonl")},
			files: map[string]string{
				"t.json":  "d0ee849068c5749d4cdb02ec3202f526d1f3a9004a8bf30a59583bf7d83e4494",
				"m.json":  "38670bc232fc3edf3db2d8bb381e129c28183c824d2f4a88ff5afb2ce3b7c888",
				"e.jsonl": "bc785bcb13850344c10dfe6820961c1a5039523bb8064426e5eb076de271d807",
			},
		},
		{
			args:  []string{"-opt", "0", "-profile", "15", "-profile-out", path("p.json")},
			files: map[string]string{"p.json": "c9c6954a212fb7a8406306333070caec269e92f4b964bc8ca8824355b0e2edac"},
		},
		{
			args:   []string{"-benchmark", "PAYMENT", "-txns", "3", "-warmup", "1", "-json"},
			stdout: "4faa6837dc70f10f4db3463ccb6e92f96656bfb63a7841dda215aae23baaa55a",
		},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("tlssim %q exit %d: %s", c.args, code, stderr.String())
		}
		if c.stdout != "" {
			if got := sha256Hex(stdout.Bytes()); got != c.stdout {
				t.Errorf("tlssim %q stdout sha256 %s, want %s", c.args, got, c.stdout)
			}
		}
		for name, want := range c.files {
			b, err := os.ReadFile(path(name))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(b); got != want {
				t.Errorf("tlssim %q: %s sha256 %s, want %s", c.args, name, got, want)
			}
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
