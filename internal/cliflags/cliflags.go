// Package cliflags factors the flag wiring shared by the commands — tlssim,
// experiments, tlsd and tlsrouter — so the hardening switches of the two
// run commands (-paranoid, -inject), the repro line printed with every
// failure, the daemons' logger (-log-format, -log-level) and URL lists
// (-peers, -workers), and -version behave identically everywhere instead of
// being re-implemented per main.
// tlssim's telemetry captures (-trace-out, -metrics-out, -events-out) live
// here too.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"subthreads/internal/inject"
	"subthreads/internal/isa"
	"subthreads/internal/sim"
	"subthreads/internal/telemetry"
	"subthreads/internal/version"
)

// Faults is the hardening flag pair: the paranoid protocol auditor and the
// deterministic fault injector.
type Faults struct {
	Paranoid bool
	Inject   string
}

// AddFaults registers -paranoid and -inject on fs.
func AddFaults(fs *flag.FlagSet) *Faults {
	f := &Faults{}
	fs.BoolVar(&f.Paranoid, "paranoid", false,
		"audit TLS protocol invariants every cycle boundary (abort on violation)")
	fs.StringVar(&f.Inject, "inject", "",
		"fault injection spec, e.g. seed=1,faults=25,window=120000 (see internal/inject)")
	return f
}

// Config parses the injection spec, or returns nil when injection is off.
func (f *Faults) Config() (*inject.Config, error) {
	if f.Inject == "" {
		return nil, nil
	}
	c, err := inject.Parse(f.Inject)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// Outputs is the telemetry-capture flag set: a Chrome trace-event timeline,
// a metrics snapshot, and the raw event stream as JSON Lines.
type Outputs struct {
	TraceOut   string
	MetricsOut string
	EventsOut  string

	buf     *telemetry.Buffer
	metrics *telemetry.Metrics
}

// AddOutputs registers -trace-out, -metrics-out and -events-out on fs.
func AddOutputs(fs *flag.FlagSet) *Outputs {
	o := &Outputs{}
	fs.StringVar(&o.TraceOut, "trace-out", "",
		"write a Chrome trace-event timeline (ui.perfetto.dev)")
	fs.StringVar(&o.MetricsOut, "metrics-out", "",
		"write a telemetry metrics snapshot as JSON")
	fs.StringVar(&o.EventsOut, "events-out", "",
		"write the raw telemetry event stream as JSON Lines")
	return o
}

// Attach installs the sinks the selected outputs need on cfg.Telemetry,
// preserving any emitter already configured. When nothing is captured,
// cfg.Telemetry is left untouched, keeping the zero-overhead nil-emitter
// path.
func (o *Outputs) Attach(cfg *sim.Config) {
	sinks := []telemetry.Emitter{cfg.Telemetry}
	if o.TraceOut != "" || o.EventsOut != "" {
		o.buf = &telemetry.Buffer{}
		sinks = append(sinks, o.buf)
	}
	if o.MetricsOut != "" {
		o.metrics = telemetry.NewMetrics()
		sinks = append(sinks, o.metrics)
	}
	cfg.Telemetry = telemetry.Multi(sinks...)
}

// Write renders the requested output files, resolving instrumentation-site
// PCs through name (may be nil).
func (o *Outputs) Write(name func(isa.PC) string) error {
	if o.TraceOut != "" {
		if err := WriteFile(o.TraceOut, func(f io.Writer) error {
			return telemetry.WriteChromeTrace(f, o.buf.Events, telemetry.TraceOptions{SiteName: name})
		}); err != nil {
			return err
		}
	}
	if o.MetricsOut != "" {
		if err := WriteFile(o.MetricsOut, func(f io.Writer) error {
			return o.metrics.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	if o.EventsOut != "" {
		return WriteFile(o.EventsOut, func(f io.Writer) error {
			return telemetry.EncodeJSONL(f, o.buf.Events)
		})
	}
	return nil
}

// WriteFile creates path, runs write on it, and closes it, reporting the
// first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AddVersion registers -version on fs.
func AddVersion(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print the build version and exit")
}

// NoArgs rejects what fs left unparsed: every command takes flags only,
// and a stray word is most often half of a name whose space was not quoted.
func NoArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (quote names that contain spaces)", fs.Arg(0))
	}
	return nil
}

// HandleVersion prints the build identity and exits when -version was given.
// Call it immediately after flag parsing.
func HandleVersion(show bool) {
	if show {
		fmt.Println(version.Get().String())
		os.Exit(0)
	}
}

// Repro is the shell command line that re-runs ./cmd/<command> with args,
// printed with every structured failure so it is one paste away from a
// debugger. Arguments a POSIX shell would split or expand are double-quoted,
// so the line splits back into exactly args.
func Repro(command string, args []string) string {
	words := []string{"go", "run", "./cmd/" + command}
	for _, a := range args {
		words = append(words, shellQuote(a))
	}
	return strings.Join(words, " ")
}

// shellInert are the bytes a POSIX shell gives no meaning inside a word.
const shellInert = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_=,.:/+@%"

// shellQuote returns s as one shell word: unchanged when every byte is
// inert, otherwise double-quoted with the four bytes that stay special
// inside double quotes backslash-escaped.
func shellQuote(s string) string {
	if s != "" && strings.Trim(s, shellInert) == "" {
		return s
	}
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		if strings.ContainsRune("\"\\$`", r) {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('"')
	return b.String()
}

// NewLogger builds a daemon's structured logger on stderr, so the log
// stream never mixes with the human status lines on stdout (tlsd's
// and tlsrouter's -log-format and -log-level).
func NewLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

// SplitURLs parses a comma-separated list of base URLs (tlsd's -peers,
// tlsrouter's -workers), trailing slashes trimmed so URL concatenation
// stays uniform.
func SplitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		u := strings.TrimRight(strings.TrimSpace(part), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}
