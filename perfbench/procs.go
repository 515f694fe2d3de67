package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one program under test running as a child process.
type daemon struct {
	url  string // base URL of its HTTP API
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts bin with args, logging to dir/<name>.log, and waits
// until GET url/readyz answers 200.
func startDaemon(dir, name, bin, addr string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Dir = dir
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited during start-up: %v (log %s)", name, d.err, logf.Name())
		default:
		}
		if resp, err := http.Get(d.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not ready after 30s (log %s)", name, logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after 30s),
// and returns its peak resident memory in MB.
func (d *daemon) stop() float64 {
	if d == nil {
		return 0
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	return peakRSSMB(d.cmd.ProcessState)
}

// peakRSSMB is a finished child's peak resident set in MB.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// cpuTime is this process's CPU time so far (user plus system). Unlike wall
// time it excludes the spells in which the hypervisor runs other guests on
// the host's CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts this process's peak-RSS mark at its current RSS
// (Linux: writing 5 to /proc/self/clear_refs).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak only covers more
}

// currentPeakRSSMB is this process's peak resident set since the last
// resetPeakRSS, in MB (VmHWM).
func currentPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cpuProfile collects a CPU profile of seconds from a daemon's pprof
// endpoint; it blocks for that long.
func cpuProfile(ctx context.Context, debugURL string, seconds int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", debugURL, seconds), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// newClient is an HTTP client whose connection pool holds at most conns
// connections per host, so the load generator never opens more connections
// than it has goroutines.
func newClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// trimErr shortens an error body for notes.
func trimErr(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}
