package tpcc

// Per-transaction output capture for the differential oracle: each
// transaction records the values a TPC-C client would see (order ids,
// balances, delivery sums, stock-level counts) as it executes. The capture
// is purely functional — it emits no trace events and costs nothing in the
// simulation — so a flat/serial and a TLS-transformed execution of the same
// input stream must produce identical output vectors, and any difference
// pinpoints the first transaction whose semantics speculation broke.

// out appends client-visible result values for the running transaction.
func (d *DB) out(vs ...int64) { d.lastOut = append(d.lastOut, vs...) }

// LastOutput returns a copy of the client-visible output of the most recent
// RunTxn or Warm call.
func (d *DB) LastOutput() []int64 {
	return append([]int64(nil), d.lastOut...)
}
