package tpcc

import (
	"testing"

	"subthreads/internal/db"
)

// loadDefault loads the default-scale database.
func loadDefault() *DB {
	return Load(db.NewEnv(db.DefaultConfig()), DefaultScale(), 42)
}

// A clone is taken before any recording: once a database has run a
// transaction, its PC registry and buffers are a recording's, and Clone
// panics instead of copying them.
func TestCloneOfRecordedPanics(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	d.Clone(db.OptNone())
	d.Warm(GenInputs(NewOrder, tinyScale(), 2, 1)[0], ModeTLS)
	defer func() {
		if recover() == nil {
			t.Error("Clone of a database that has run a transaction did not panic")
		}
	}()
	d.Clone(db.OptNone())
}

// Cloning the database a load leaves is a few slab allocations, where the
// load makes thousands.
func TestCloneAllocs(t *testing.T) {
	d := loadDefault()
	if n := testing.AllocsPerRun(5, func() { d.Clone(db.OptNone()) }); n >= 200 {
		t.Errorf("Clone made %.0f allocations, want under 200", n)
	}
}

// sink keeps the benchmarks' results live.
var sink *DB

func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = loadDefault()
	}
}

func BenchmarkClone(b *testing.B) {
	d := loadDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = d.Clone(db.OptNone())
	}
}
