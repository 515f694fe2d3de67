package workload

import (
	"sync"
	"testing"

	"subthreads/internal/tpcc"
)

// A program recorded on a clone is byte for byte the program its own Build
// records: every benchmark, TLS at three opt levels and SEQUENTIAL, on two
// seeds, at the default scale. Each clone is taken from one load under the
// fully-optimized engine (DefaultSpec's opt level), so every clone but one
// also sets flags its source did not have.
func TestCloneRecordsBuildsPrograms(t *testing.T) {
	for _, bench := range tpcc.All() {
		for _, seed := range []int64{42, 7} {
			spec := DefaultSpec(bench)
			spec.Txns, spec.Warmup, spec.Seed = 2, 1, seed
			d := load(spec, false)
			_, onClone := recordHashed(spec, true, d.Clone(engineOpt(spec, true)))
			if _, want := buildHashed(spec, true); onClone != want {
				t.Errorf("%v seed %d: the SEQUENTIAL program recorded on a clone differs from Build's", bench, seed)
			}
			for _, opt := range []int{0, 2, 5} {
				spec.OptLevel = opt
				_, onClone := recordHashed(spec, false, d.Clone(engineOpt(spec, false)))
				if _, want := buildHashed(spec, false); onClone != want {
					t.Errorf("%v seed %d opt %d: the TLS program recorded on a clone differs from Build's", bench, seed, opt)
				}
			}
		}
	}
}

// Recording on a clone leaves the database it was cloned from as loaded.
func TestRecordOnCloneLeavesSource(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	d := load(spec, false)
	loaded := d.Env.StateDigest()
	c := d.Clone(engineOpt(spec, false))
	_, onClone := recordHashed(spec, false, c)
	if got := d.Env.StateDigest(); got != loaded {
		t.Errorf("source digest %#x after recording on its clone, want %#x", got, loaded)
	}
	if c.Env.StateDigest() == loaded {
		t.Error("the recorded transactions left the clone's database as loaded")
	}
	if _, onSource := recordHashed(spec, false, d); onSource != onClone {
		t.Error("the source records a different program than its clone")
	}
}

// Two clones of one load record concurrently, sharing nothing: under -race
// this checks that no state of the load is left shared.
func TestClonesRecordConcurrently(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	d := load(spec, false)
	clones := []*tpcc.DB{d.Clone(engineOpt(spec, false)), d.Clone(engineOpt(spec, true))}
	got := make([]string, len(clones))
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i] = recordHashed(spec, i == 1, c)
		}()
	}
	wg.Wait()
	for i, sum := range got {
		if _, want := buildHashed(spec, i == 1); sum != want {
			t.Errorf("clone %d recorded a different program than Build", i)
		}
	}
}

// BuildWithReference records the caller's program and its one-use
// SEQUENTIAL program from one load when both miss; otherwise the reference
// takes a load of its own. The reference program is never memoized, and a
// SEQUENTIAL caller's program is its reference.
func TestBuildWithReference(t *testing.T) {
	spec := tinySpec(tpcc.DeliveryOuter)
	seqWant := programHash(Build(KeyOf(spec, true).Spec, true), 0)

	b := NewBuilder()
	b.SetBudget(1 << 40)
	built, ref := b.BuildWithReference(spec, false)
	if st := b.Stats(); st.Builds != 2 || st.Loads != 1 || st.Clones != 1 || st.ResidentBytes != built.Bytes() {
		t.Errorf("novel pair: stats %+v, want 2 builds from 1 load and 1 clone, only the TLS program resident", st)
	}
	if programHash(ref, 0) != seqWant || programHash(built, 0) != programHash(Build(spec, false), 0) {
		t.Error("novel pair: programs differ from Build's")
	}

	again, ref2 := b.BuildWithReference(spec, false)
	if again != built || ref2 == ref || programHash(ref2, 0) != seqWant {
		t.Error("memory hit: want the memoized program and a fresh reference program")
	}
	if st := b.Stats(); st.MemoryHits != 1 || st.Builds != 3 || st.Loads != 2 || st.Clones != 1 {
		t.Errorf("memory hit: stats %+v, want the reference recorded on a load of its own", st)
	}
	if b.Build(spec, true); b.Stats().MemoryHits != 1 {
		t.Error("the one-use SEQUENTIAL program was memoized")
	}

	seq, seqRef := b.BuildWithReference(spec, true)
	if seq != seqRef {
		t.Error("a SEQUENTIAL program is its own reference")
	}
}
