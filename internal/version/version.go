// Package version resolves the module's build identity — the module version
// and the VCS revision the Go toolchain embeds in every binary — so all five
// commands can answer -version and the serving daemon can report what code
// produced a result (GET /healthz).
package version

import (
	"runtime"
	"runtime/debug"
)

// Info is the build identity of the running binary.
type Info struct {
	// Module is the main module path ("subthreads").
	Module string `json:"module"`
	// Version is the module version ("(devel)" for local builds).
	Version string `json:"version"`
	// Revision is the VCS commit hash, when the build had one.
	Revision string `json:"revision,omitempty"`
	// Time is the VCS commit time (RFC 3339), when known.
	Time string `json:"time,omitempty"`
	// Modified reports uncommitted changes at build time.
	Modified bool `json:"modified,omitempty"`
	// Go is the toolchain that built the binary.
	Go string `json:"go,omitempty"`
}

// Get reads the build identity via runtime/debug.ReadBuildInfo. It degrades
// gracefully: binaries built without VCS stamping still report the module
// and toolchain.
func Get() Info {
	info := Info{Module: "subthreads", Version: "(devel)"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Go = bi.GoVersion
	if bi.Main.Path != "" {
		info.Module = bi.Main.Path
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// String renders the identity on one line, e.g.
// "subthreads (devel) @1a2b3c4d5e6f+dirty go1.22.0".
func (i Info) String() string {
	s := i.Module + " " + i.Version
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " @" + rev
		if i.Modified {
			s += "+dirty"
		}
	}
	if i.Go != "" {
		s += " " + i.Go
	}
	return s
}

// HostInfo is the execution environment stamped into every benchmark
// record (perfbench), so a measurement carries the machine and toolchain
// that produced its numbers.
type HostInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Host captures the current process's execution environment.
func Host() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
