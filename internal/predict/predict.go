// Package predict implements a dependence predictor in the style of
// Moshovos et al. (ISCA'97), which the paper evaluated and abandoned before
// proposing sub-threads (§1.2, §2.2): load PCs whose exposed loads caused
// violations are predicted to be dependent again, and predicted-dependent
// loads synchronize (stall) instead of speculating.
//
// The paper found this ineffective for database threads because "only one of
// several dynamic instances of the same load PC caused the dependence" — the
// predictor cannot tell which instance to synchronize, so it stalls them all.
// The predictor ablation in cmd/experiments reproduces that comparison.
package predict

import "subthreads/internal/isa"

// Predictor tracks, per load PC, a saturating confidence that the next
// dynamic instance of the load will be involved in a cross-thread dependence.
type Predictor struct {
	conf map[isa.PC]uint8

	// Trained counts violation-driven confidence increments; Decayed
	// counts wasted synchronizations that lowered confidence.
	Trained uint64
	Decayed uint64
}

// New returns an empty predictor.
func New() *Predictor {
	return &Predictor{conf: make(map[isa.PC]uint8)}
}

const (
	confMax  = 3
	confSync = 2 // predict dependent at 2 and 3
)

// RecordViolation trains the predictor: the exposed load at pc was violated.
func (p *Predictor) RecordViolation(pc isa.PC) {
	if pc == 0 {
		return
	}
	if c := p.conf[pc]; c < confMax {
		p.conf[pc] = c + 1
	}
	p.Trained++
}

// ShouldSync reports whether the next dynamic instance of the load at pc
// should synchronize with earlier epochs instead of speculating.
func (p *Predictor) ShouldSync(pc isa.PC) bool {
	return p.conf[pc] >= confSync
}

// RecordUseless decays confidence after a synchronization that turned out to
// be unnecessary (no earlier epoch produced the value).
func (p *Predictor) RecordUseless(pc isa.PC) {
	if c := p.conf[pc]; c > 0 {
		p.conf[pc] = c - 1
	}
	p.Decayed++
}
