// Package check is the differential serial oracle: TLS's whole correctness
// contract is that speculative execution with sub-thread rewinds produces
// exactly the serial result (PAPER.md §2), and this package verifies it end
// to end for a workload.
//
// Two comparisons back the contract:
//
//   - Functional: the same transaction stream is built once flat/serial and
//     once TLS-transformed; the final state digests of the two databases
//     (db.Env.StateDigest) and the per-transaction client-visible outputs
//     (workload.Built) must match.
//   - Architectural: the speculative simulation of the TLS program is
//     observed through sim.MemOracle, reconstructing the memory image its
//     commits produce (stores surviving every squash, folded in commit
//     order). That image must equal a serial replay of the same traces.
//     Traces carry no data values, so a word's value is identified by its
//     last writer — the (unit, instruction-sequence) pair of the store —
//     which is exactly what serial semantics dictate.
//
// A mismatch yields a first-divergence report: the lowest diverging word
// address, the serial writer, and the speculative writer with its epoch and
// sub-thread context.
package check

import (
	"fmt"
	"math"
	"sort"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/sim"
	"subthreads/internal/trace"
	"subthreads/internal/workload"
)

// Cell identifies the last writer of one memory word: the program unit
// (== epoch ID) and the unit-relative instruction sequence number of the
// store. Ctx is the sub-thread context that performed the surviving
// speculative store (always 0 in serial images).
type Cell struct {
	Unit uint64
	Seq  uint64
	Ctx  int
}

// Image maps word addresses to their final writers.
type Image map[mem.Addr]Cell

// SerialImage replays the program's traces in unit order — the defining
// serial semantics — and returns the resulting memory image.
func SerialImage(prog *sim.Program) Image {
	img := make(Image)
	var c trace.Cursor
	for i, u := range prog.Units {
		c.Reset(u.Trace)
		for {
			ev, ok := c.Next(math.MaxUint32)
			if !ok {
				break
			}
			if ev.Kind == isa.Store {
				img[ev.Addr.Word()] = Cell{Unit: uint64(i), Seq: c.Done()}
			}
		}
	}
	return img
}

// pend is one store buffered by a speculative context, not yet committed.
type pend struct {
	addr mem.Addr
	seq  uint64
}

// Oracle implements sim.MemOracle: it buffers every store per (unit,
// context), discards buffers on squash, and folds the survivors into the
// committed image at commit — reconstructing exactly the state the TLS
// protocol promises to make architectural.
type Oracle struct {
	img     Image
	pending map[uint64][][]pend // unit -> per-context store buffers
}

var _ sim.MemOracle = (*Oracle)(nil)

// NewOracle returns an empty oracle; install it as sim.Config.Oracle.
func NewOracle() *Oracle {
	return &Oracle{img: make(Image), pending: make(map[uint64][][]pend)}
}

// OnStore buffers a store by unit's context ctx at instruction seq.
func (o *Oracle) OnStore(unit uint64, ctx int, addr mem.Addr, seq uint64) {
	ctxs := o.pending[unit]
	for len(ctxs) <= ctx {
		ctxs = append(ctxs, nil)
	}
	ctxs[ctx] = append(ctxs[ctx], pend{addr: addr, seq: seq})
	o.pending[unit] = ctxs
}

// OnSquash discards the buffered stores of contexts ctx and later — the
// stores the rewind undid. Re-execution will re-buffer them.
func (o *Oracle) OnSquash(unit uint64, ctx int) {
	ctxs := o.pending[unit]
	for c := ctx; c < len(ctxs); c++ {
		ctxs[c] = ctxs[c][:0]
	}
}

// OnCommit folds the unit's surviving stores into the committed image.
// Contexts in ascending order, stores in buffer order, reproduces the
// unit's program order; units commit oldest-first, so the fold order across
// units is the serial order too.
func (o *Oracle) OnCommit(unit uint64) {
	for ctx, stores := range o.pending[unit] {
		for _, s := range stores {
			o.img[s.addr.Word()] = Cell{Unit: unit, Seq: s.seq, Ctx: ctx}
		}
	}
	delete(o.pending, unit)
}

// Image returns the committed image reconstructed so far.
func (o *Oracle) Image() Image { return o.img }

// Done verifies the run retired cleanly: every buffered store must have been
// committed or squashed away.
func (o *Oracle) Done() error {
	for unit, ctxs := range o.pending {
		n := 0
		for _, stores := range ctxs {
			n += len(stores)
		}
		if n > 0 {
			return fmt.Errorf("check: unit %d left %d uncommitted buffered stores", unit, n)
		}
	}
	return nil
}

// Divergence is a first-divergence report: the lowest word address whose
// final writer differs between the serial and speculative images. A nil
// writer means that side never wrote the word.
type Divergence struct {
	Addr   mem.Addr
	Serial *Cell
	Spec   *Cell
}

func (d *Divergence) Error() string {
	side := func(c *Cell, ctxed bool) string {
		if c == nil {
			return "no writer"
		}
		if ctxed {
			return fmt.Sprintf("epoch %d instr %d (sub-thread ctx %d)", c.Unit, c.Seq, c.Ctx)
		}
		return fmt.Sprintf("unit %d instr %d", c.Unit, c.Seq)
	}
	return fmt.Sprintf("check: memory divergence at %v: serial writer %s, speculative writer %s",
		d.Addr, side(d.Serial, false), side(d.Spec, true))
}

// Compare diffs the serial and speculative images, returning the lowest-
// address divergence (deterministic first report) or nil when identical.
func Compare(serial, spec Image) *Divergence {
	addrs := make([]mem.Addr, 0, len(serial))
	for a := range serial {
		addrs = append(addrs, a)
	}
	for a := range spec {
		if _, ok := serial[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s, haveS := serial[a]
		p, haveP := spec[a]
		if haveS && haveP && s.Unit == p.Unit && s.Seq == p.Seq {
			continue
		}
		d := &Divergence{Addr: a}
		if haveS {
			d.Serial = &s
		}
		if haveP {
			d.Spec = &p
		}
		return d
	}
	return nil
}

// Differential runs the full oracle for one workload: functional state
// digest and per-transaction outputs (flat vs. TLS build, recorded from one
// database load and its clone), then the speculative simulation of the TLS
// program under cfg with the architectural store oracle attached, compared
// against a serial replay. It returns nil when speculation preserved serial
// semantics exactly.
func Differential(spec workload.Spec, cfg sim.Config) error {
	tlsB, flat, tlsDB, flatDB := workload.BuildPair(spec)
	if err := functional(flatDB.Env.StateDigest(), tlsDB.Env.StateDigest(), flat.Outputs, tlsB.Outputs); err != nil {
		return err
	}

	o := NewOracle()
	cfg.Oracle = o
	if _, err := sim.RunE(cfg, tlsB.Program); err != nil {
		return err
	}
	if err := o.Done(); err != nil {
		return err
	}
	if d := Compare(SerialImage(tlsB.Program), o.Image()); d != nil {
		return d
	}
	return nil
}

// functional compares the flat/serial and TLS-transformed builds of one
// transaction stream: their databases' final state digests, then each
// transaction's outputs, value by value and then by length.
func functional(flatDigest, tlsDigest uint64, flat, tls [][]int64) error {
	if flatDigest != tlsDigest {
		return fmt.Errorf(
			"check: database state digest diverged: flat/serial %#x, TLS-transformed %#x",
			flatDigest, tlsDigest)
	}
	if len(flat) != len(tls) {
		return fmt.Errorf("check: transaction count diverged: %d flat vs %d TLS",
			len(flat), len(tls))
	}
	for i := range flat {
		f, t := flat[i], tls[i]
		n := len(f)
		if len(t) < n {
			n = len(t)
		}
		for j := 0; j < n; j++ {
			if f[j] != t[j] {
				return fmt.Errorf(
					"check: transaction %d output diverged at value %d: flat %d, TLS %d",
					i, j, f[j], t[j])
			}
		}
		if len(f) != len(t) {
			return fmt.Errorf(
				"check: transaction %d output length diverged: flat %d values, TLS %d",
				i, len(f), len(t))
		}
	}
	return nil
}
