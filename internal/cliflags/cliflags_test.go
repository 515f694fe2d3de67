package cliflags

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"subthreads/internal/sim"
	"subthreads/internal/telemetry"
	"subthreads/internal/version"
)

func TestFaultsBadSpec(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := AddFaults(fs)
	if err := fs.Parse([]string{"-inject", "gibberish"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Config(); err == nil {
		t.Error("Config accepted an unparsable -inject spec")
	}
}

func TestOutputsAttachPreservesExistingSink(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := AddOutputs(fs)
	events := filepath.Join(dir, "e.jsonl")
	metrics := filepath.Join(dir, "m.json")
	if err := fs.Parse([]string{"-events-out", events, "-metrics-out", metrics}); err != nil {
		t.Fatal(err)
	}

	existing := &telemetry.Buffer{}
	cfg := sim.DefaultConfig()
	cfg.Telemetry = existing
	o.Attach(&cfg)

	ev := telemetry.Event{Cycle: 7}
	cfg.Telemetry.Emit(ev)
	if got := len(existing.Events); got != 1 {
		t.Errorf("pre-existing sink saw %d events, want 1", got)
	}
	if err := o.Write(nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var want bytes.Buffer
	if err := telemetry.EncodeJSONL(&want, []telemetry.Event{ev}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(events); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-events-out = %q, %v; want %q", got, err, want.Bytes())
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("-metrics-out not written: %v", err)
	}

	// With no output requested the nil emitter stays nil: the zero-overhead
	// path.
	off := sim.DefaultConfig()
	AddOutputs(flag.NewFlagSet("off", flag.ContinueOnError)).Attach(&off)
	if off.Telemetry != nil {
		t.Errorf("no output requested, yet Telemetry = %T", off.Telemetry)
	}
}

// TestReproSplitsBack pastes the repro line into a real shell and requires
// it to split back into exactly the original arguments.
func TestReproSplitsBack(t *testing.T) {
	args := []string{
		"-benchmark", "NEW ORDER", "-experiment", "NO SUB-THREAD", "-txns", "3",
		"-inject", "seed=1,faults=5,window=60000", "-trace-out", "traces/t.json",
		"", `quote"back\slash`, "$HOME", "`id`", "it's", "tab\there", "*", "a;b",
	}
	line := Repro("tlssim", args)
	if !strings.Contains(line, `-benchmark "NEW ORDER"`) {
		t.Errorf("repro %q does not quote the benchmark name", line)
	}
	if !strings.Contains(line, " -txns 3 ") {
		t.Errorf("repro %q quotes a plain argument", line)
	}
	out, err := exec.Command("sh", "-c", "set -- "+line+`; for a in "$@"; do printf '%s\0' "$a"; done`).Output()
	if err != nil {
		t.Fatalf("sh: %v", err)
	}
	got := strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
	want := append([]string{"go", "run", "./cmd/tlssim"}, args...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repro %q splits into\n  %q\nwant\n  %q", line, got, want)
	}
}

func TestVersionString(t *testing.T) {
	v := version.Get()
	if v.Module != "subthreads" {
		t.Errorf("module = %q, want subthreads", v.Module)
	}
	if v.Go == "" || v.Version == "" {
		t.Errorf("incomplete build identity: %+v", v)
	}
	if s := v.String(); s == "" {
		t.Error("empty String()")
	}
}
