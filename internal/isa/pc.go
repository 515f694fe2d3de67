package isa

import "fmt"

// PC is a synthetic program counter. The workload substrate registers one PC
// per static instrumentation site (a named load, store, or branch in the
// database engine), so the profiling support of §3.1 — which reports
// load/store PC pairs to the programmer — has stable, human-readable PCs to
// work with.
type PC uint32

// MaxPC is the largest PC a registry issues. A trace entry packs its PC into
// 20 bits (internal/trace), leaving room for the ALU run fused ahead of it,
// so the registry stops there; real programs register a few hundred sites
// (the TPC-C programs fewer than 200).
const MaxPC PC = 1<<20 - 1

// PCRegistry assigns stable PCs to named instrumentation sites. It is not
// safe for concurrent use; the simulator is single-goroutine by design
// (a discrete simulation with a global clock).
type PCRegistry struct {
	byName map[string]PC
	names  []string
	next   PC
}

// NewPCRegistry returns an empty registry. PC 0 is reserved and never issued
// so that the zero value of PC means "no site".
func NewPCRegistry() *PCRegistry {
	return &PCRegistry{
		byName: make(map[string]PC),
		names:  []string{"<none>"},
		next:   1,
	}
}

// Site returns the PC for name, assigning a fresh one on first use.
// PCs are assigned densely starting at 1, spaced by 4 when converted with
// Addr to resemble real instruction addresses. Site panics rather than
// issue a PC past MaxPC.
func (r *PCRegistry) Site(name string) PC {
	if pc, ok := r.byName[name]; ok {
		return pc
	}
	pc := r.next
	if pc > MaxPC {
		panic(fmt.Sprintf("isa: more than %d instrumentation sites", MaxPC))
	}
	r.next++
	r.byName[name] = pc
	r.names = append(r.names, name)
	return pc
}

// Name returns the site name for pc, or "<none>" for the zero PC and
// "<unknown>" for a PC this registry never issued.
func (r *PCRegistry) Name(pc PC) string {
	if int(pc) < len(r.names) {
		return r.names[pc]
	}
	return "<unknown>"
}

// Len reports how many sites have been registered (excluding the reserved
// zero PC).
func (r *PCRegistry) Len() int { return len(r.names) - 1 }

// Names returns the registered site names in PC order (PC 1 first).
func (r *PCRegistry) Names() []string {
	out := make([]string, len(r.names)-1)
	copy(out, r.names[1:])
	return out
}
