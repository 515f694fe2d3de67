package db

import "math/bits"

// StateDigest hashes the logical content of every table — tree name, then
// each (key, fields) row in key order — into one FNV-1a word. It reads the
// functional state only (no simulated addresses, no trace emission), so two
// executions that computed the same database agree on the digest regardless
// of software mode or memory layout. The differential oracle compares the
// digest of a flat/serial build against the TLS-transformed build.
func (e *Env) StateDigest() uint64 {
	h := uint64(fnvOffset)
	for _, t := range e.trees {
		for i := 0; i < len(t.name); i++ {
			h = (h ^ uint64(t.name[i])) * fnvPrime
		}
		n := t.root
		for !n.leaf {
			n = n.kids[0]
		}
		for ; n != nil; n = n.next {
			for i, key := range n.keys {
				r := e.row(n.rows[i])
				h = fnv8(h, uint64(key))
				h = fnv8(h, uint64(r.n))
				for _, f := range r.Fields[:r.n] {
					h = fnv8(h, uint64(f))
				}
			}
		}
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime to the k-th power (mod 2^64).
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnv8 folds v's eight bytes into the FNV-1a hash h, low byte first. Folding
// a zero byte only multiplies h by the prime, so the zero bytes above v's
// highest nonzero byte fold in as one multiplication by a power of it.
func fnv8(h, v uint64) uint64 {
	n := 8 - bits.LeadingZeros64(v)/8
	for i := 0; i < n; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h * fnvPrimePow[8-n]
}
