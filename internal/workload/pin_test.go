package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"subthreads/internal/isa"
	"subthreads/internal/tpcc"
	"subthreads/internal/trace"
)

// programHash is the SHA-256, in hex, of everything a recorded program
// carries: its stats, each measured transaction's outputs, its PC names in
// registration order, each unit's barrier flag and trace events, and state,
// the final StateDigest of the database that recorded it (0 where no
// database is at hand, as for a program a Builder returns). It hashes a
// unit's events as unfusedEntries lays them out, so the pins taken before
// trace entries took in the ALU run ahead of them still hold.
func programHash(b *Built, state uint64) string {
	h := sha256.New()
	st := &b.Stats
	for _, v := range []uint64{uint64(st.Txns), uint64(st.Epochs), st.TotalInstrs, st.IterInstrs,
		math.Float64bits(st.Coverage), math.Float64bits(st.AvgThreadSize), math.Float64bits(st.ThreadsPerTxn), state} {
		putUint64(h, v)
	}
	putUint64(h, uint64(len(b.Outputs)))
	for _, vals := range b.Outputs {
		putUint64(h, uint64(len(vals)))
		for _, v := range vals {
			putUint64(h, uint64(v))
		}
	}
	names := b.PCs.Names()
	putUint64(h, uint64(len(names)))
	for _, n := range names {
		putUint64(h, uint64(len(n)))
		h.Write([]byte(n))
	}
	putUint64(h, uint64(len(b.Program.Units)))
	for _, u := range b.Program.Units {
		flag := uint64(0)
		if u.Barrier {
			flag = 1
		}
		putUint64(h, flag)
		evs := unfusedEntries(u.Trace)
		putUint64(h, uint64(len(evs)))
		buf := make([]byte, 0, 8*len(evs))
		for _, w := range evs {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unfusedEntries lays t's event stream out one 64-bit word per event, as
// trace entries were before each took in the ALU run ahead of it: the
// 32-bit argument (the address, or an ALU run's length), then a 27-bit PC,
// the 4-bit kind and the branch outcome.
func unfusedEntries(t *trace.Trace) []uint64 {
	var out []uint64
	c := trace.NewCursor(t)
	for {
		ev, ok := c.Next(math.MaxUint32)
		if !ok {
			return out
		}
		w := uint64(ev.Addr) | uint64(ev.PC)<<32 | uint64(ev.Kind)<<59
		if ev.Kind == isa.ALU {
			w |= uint64(ev.N)
		}
		if ev.Taken {
			w |= 1 << 63
		}
		out = append(out, w)
	}
}

// events counts the events of b's program, as Cursor.Next yields them.
func events(b *Built) int64 {
	var n int64
	for _, u := range b.Program.Units {
		n += int64(len(unfusedEntries(u.Trace)))
	}
	return n
}

func putUint64(h hash.Hash, v uint64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, v))
}

// recordHashed records spec's program in the given mode on database, as
// Build does on a fresh load, and returns it with its programHash.
func recordHashed(spec Spec, sequential bool, database *tpcc.DB) (*Built, string) {
	b := record(spec, sequential, database)
	return b, programHash(b, database.Env.StateDigest())
}

// buildHashed is Build plus the programHash of what it records.
func buildHashed(spec Spec, sequential bool) (*Built, string) {
	return recordHashed(spec, sequential, load(spec, sequential))
}

// TestProgramsPinned pins the recorded programs by programHash: NEW ORDER
// and DELIVERY in both software modes at -txns 3 -warmup 1, every benchmark
// in both modes at -txns 1 -warmup 1, NEW ORDER and DELIVERY TLS at each
// tuning level below the default, and a NEW ORDER seed whose measured
// transaction rolls back. The opt levels reach every emission path the
// tuning flags switch (latches, pins, log, locks, allocator); the rollback
// reaches Abort's undo walk. A trace entry carries its site's PC, so the
// pins also hold the order in which sites first register. entries counts
// the program's trace events, one entry each in the layout programHash
// hashes, and packed the trace entries it holds: an ALU run fused into the
// entry after it makes one entry of two events, so a program holds about
// half as many packed entries as events.
func TestProgramsPinned(t *testing.T) {
	// At this seed the one measured NEW ORDER carries the invalid item
	// and rolls back after eight order lines.
	const rollbackSeed = 45
	for _, c := range []struct {
		bench      tpcc.Benchmark
		sequential bool
		txns, opt  int
		seed       int64
		entries    int64
		packed     int64
		sum        string
	}{
		{tpcc.NewOrder, false, 3, 5, 42, 504963, 253627, "d68f5aeb572a674b"},
		{tpcc.NewOrder, true, 3, 5, 42, 506707, 254684, "a0ef798ac1406db3"},
		{tpcc.Delivery, false, 3, 5, 42, 2478400, 1242833, "91a19d137da4c284"},
		{tpcc.Delivery, true, 3, 5, 42, 2477053, 1242599, "b51458652ec233f7"},
		{tpcc.NewOrder, false, 1, 5, 42, 177339, 89080, "4c2fde8d5e3b888c"},
		{tpcc.NewOrder, true, 1, 5, 42, 177951, 89451, "a73179a9da734db6"},
		{tpcc.NewOrder150, false, 1, 5, 42, 1335873, 671123, "08c7d764dcf40824"},
		{tpcc.NewOrder150, true, 1, 5, 42, 1340487, 673930, "4b300f0fd1a185e9"},
		{tpcc.Delivery, false, 1, 5, 42, 832222, 417333, "669851a842c34cf5"},
		{tpcc.Delivery, true, 1, 5, 42, 831759, 417249, "bfe7fd3f2d9cbaad"},
		{tpcc.DeliveryOuter, false, 1, 5, 42, 828687, 415518, "e8b7569ade9cb0b3"},
		{tpcc.DeliveryOuter, true, 1, 5, 42, 831759, 417249, "bfe7fd3f2d9cbaad"},
		{tpcc.StockLevel, false, 1, 5, 42, 318714, 163012, "19c528f21e99a376"},
		{tpcc.StockLevel, true, 1, 5, 42, 328904, 168708, "5433733a3769501e"},
		{tpcc.Payment, false, 1, 5, 42, 50141, 25117, "7c3c28c8729d9a93"},
		{tpcc.Payment, true, 1, 5, 42, 50158, 25133, "28097599a8db1bbf"},
		{tpcc.OrderStatus, false, 1, 5, 42, 11551, 5802, "0d34b9b204c38979"},
		{tpcc.OrderStatus, true, 1, 5, 42, 11511, 5785, "91f125e4eac762de"},
		{tpcc.NewOrder, false, 1, 0, 42, 178443, 89703, "4cb431941407a797"},
		{tpcc.NewOrder, false, 1, 1, 42, 178217, 89590, "fd89b83e6c311371"},
		{tpcc.NewOrder, false, 1, 2, 42, 177426, 89138, "74ef682c25fa8d47"},
		{tpcc.NewOrder, false, 1, 3, 42, 177381, 89108, "74483f568b204efe"},
		{tpcc.NewOrder, false, 1, 4, 42, 177339, 89080, "fea382cf43eeccd9"},
		{tpcc.Delivery, false, 1, 0, 42, 835705, 419275, "0c1f805b927782a5"},
		{tpcc.Delivery, false, 1, 1, 42, 834945, 418895, "38ea1901218ee44c"},
		{tpcc.Delivery, false, 1, 2, 42, 832285, 417375, "60b061778458bad2"},
		{tpcc.Delivery, false, 1, 3, 42, 832252, 417353, "558e9d22d9506bcc"},
		{tpcc.Delivery, false, 1, 4, 42, 832222, 417333, "669851a842c34cf5"},
		{tpcc.NewOrder, false, 1, 5, rollbackSeed, 130196, 65457, "e78439c85c1aabe5"},
		{tpcc.NewOrder, true, 1, 5, rollbackSeed, 130748, 65802, "e4c4a1b82454233c"},
	} {
		spec := DefaultSpec(c.bench)
		spec.Txns, spec.Warmup, spec.OptLevel, spec.Seed = c.txns, 1, c.opt, c.seed
		b, sum := buildHashed(spec, c.sequential)
		if out := b.Outputs[0]; c.seed == rollbackSeed && out[len(out)-1] != -1 {
			t.Errorf("seed %d: the measured NEW ORDER did not roll back (outputs %v)", c.seed, out)
		}
		if entries, packed := events(b), b.Bytes()/8; sum[:16] != c.sum || entries != c.entries || packed != c.packed {
			t.Errorf("%v sequential=%v txns=%d opt=%d seed=%d: %d entries, %d packed, hash %s; want %d entries, %d packed, hash %s",
				c.bench, c.sequential, c.txns, c.opt, c.seed, entries, packed, sum[:16], c.entries, c.packed, c.sum)
		}
	}
}
