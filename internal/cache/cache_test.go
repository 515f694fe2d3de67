package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subthreads/internal/mem"
)

func line(n int) mem.Addr { return mem.Addr(n * mem.LineSize) }

// resident counts the entries c holds.
func resident(c *Cache) int {
	n := 0
	for _, set := range c.sets {
		n += len(set)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad-sets", Sets: 3, Ways: 2},
		{Name: "zero-sets", Sets: 0, Ways: 2},
		{Name: "zero-ways", Sets: 4, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLookupInsert(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 2})
	e := Entry{Line: line(0), Ver: VerCommitted}
	if c.Lookup(e) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(e, nil)
	if !c.Lookup(e) {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestVersionsAreDistinctEntries(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 4})
	l := line(4)
	c.Insert(Entry{l, VerCommitted}, nil)
	c.Insert(Entry{l, 0}, nil)
	c.Insert(Entry{l, 1}, nil)
	if n := resident(c); n != 3 {
		t.Fatalf("%d entries resident, want 3 versions", n)
	}
	if !c.Present(Entry{l, 1}) || c.Present(Entry{l, 2}) {
		t.Error("Present confused versions")
	}
	// All three versions live in the same set: they consume ways (§2.1).
	if n := len(c.sets[c.setIndex(l)]); n != 3 {
		t.Errorf("set holds %d entries, want 3", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2})
	a := Entry{line(0), VerCommitted}
	b := Entry{line(1), VerCommitted}
	d := Entry{line(2), VerCommitted}
	c.Insert(a, nil)
	c.Insert(b, nil)
	c.Lookup(a) // a becomes MRU; b is LRU
	victim, evicted := c.Insert(d, nil)
	if !evicted || victim != b {
		t.Fatalf("victim = %v,%v; want %v", victim, evicted, b)
	}
	if c.Present(b) {
		t.Error("evicted entry still present")
	}
	if !c.Present(a) || !c.Present(d) {
		t.Error("survivors missing")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2})
	a := Entry{line(0), VerCommitted}
	b := Entry{line(1), VerCommitted}
	c.Insert(a, nil)
	c.Insert(b, nil)
	// Re-inserting a must not evict and must make a MRU.
	if _, evicted := c.Insert(a, nil); evicted {
		t.Fatal("re-insert evicted")
	}
	victim, _ := c.Insert(Entry{line(2), VerCommitted}, nil)
	if victim != b {
		t.Errorf("victim = %v, want %v (a was refreshed)", victim, b)
	}
}

func TestClassBasedEviction(t *testing.T) {
	// Speculative entries (class 1) must survive over committed ones
	// (class 0) even when the committed entry is more recently used —
	// this is how the TLS layer keeps versions resident.
	c := New(Config{Name: "t", Sets: 1, Ways: 3})
	spec1 := Entry{line(0), 0}
	spec2 := Entry{line(1), 1}
	committed := Entry{line(2), VerCommitted}
	c.Insert(spec1, nil)
	c.Insert(spec2, nil)
	c.Insert(committed, nil)
	c.Lookup(committed) // committed is MRU
	classOf := func(e Entry) int {
		if e.Ver == VerCommitted {
			return 0
		}
		return 1
	}
	victim, evicted := c.Insert(Entry{line(3), 2}, classOf)
	if !evicted || victim != committed {
		t.Fatalf("victim = %v, want committed entry", victim)
	}
	// With only speculative entries left, the LRU speculative one goes.
	victim, evicted = c.Insert(Entry{line(4), 3}, classOf)
	if !evicted || victim != spec1 {
		t.Fatalf("victim = %v, want %v", victim, spec1)
	}
}

func TestRemove(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 2})
	e := Entry{line(0), 3}
	c.Insert(e, nil)
	if !c.Remove(e) {
		t.Fatal("Remove missed resident entry")
	}
	if c.Remove(e) {
		t.Fatal("Remove found ghost")
	}
	if n := resident(c); n != 0 {
		t.Errorf("%d entries resident", n)
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := New(Config{Name: "t", Sets: 4, Ways: 1})
	// Lines 0 and 4 collide in a 4-set cache; 0 and 1 do not.
	c.Insert(Entry{line(0), VerCommitted}, nil)
	if _, evicted := c.Insert(Entry{line(1), VerCommitted}, nil); evicted {
		t.Error("non-colliding lines evicted each other")
	}
	victim, evicted := c.Insert(Entry{line(4), VerCommitted}, nil)
	if !evicted || victim.Line != line(0) {
		t.Errorf("colliding insert: victim=%v evicted=%v", victim, evicted)
	}
}

// Property: occupancy never exceeds Sets*Ways, and Lookup-after-Insert always
// hits until the entry is evicted or removed.
func TestOccupancyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "t", Sets: 4, Ways: 2})
		for i := 0; i < 200; i++ {
			e := Entry{line(rng.Intn(16)), Ver(rng.Intn(3) - 1)}
			switch rng.Intn(3) {
			case 0:
				c.Insert(e, nil)
				if !c.Present(e) {
					return false
				}
			case 1:
				c.Lookup(e)
			case 2:
				c.Remove(e)
			}
			if resident(c) > 8 || len(c.sets[c.setIndex(e.Line)]) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVictimBasics(t *testing.T) {
	v := NewVictim(2)
	a := Entry{line(0), 0}
	b := Entry{line(1), 1}
	d := Entry{line(2), 2}
	if _, over := v.Insert(a); over {
		t.Fatal("overflow on first insert")
	}
	v.Insert(b)
	if !v.LookupLine(a.Line) { // refresh a
		t.Fatal("victim lost entry")
	}
	over, overflowed := v.Insert(d)
	if !overflowed || over != b {
		t.Fatalf("overflow = %v,%v; want %v", over, overflowed, b)
	}
	if len(v.entries) != 2 {
		t.Errorf("%d entries resident", len(v.entries))
	}
}

func TestVictimZeroCapacity(t *testing.T) {
	v := NewVictim(0)
	e := Entry{line(0), 0}
	over, overflowed := v.Insert(e)
	if !overflowed || over != e {
		t.Errorf("zero-capacity victim must bounce inserts, got %v,%v", over, overflowed)
	}
}

func TestVictimDuplicateInsert(t *testing.T) {
	v := NewVictim(2)
	e := Entry{line(0), 0}
	v.Insert(e)
	if _, over := v.Insert(e); over {
		t.Error("duplicate insert overflowed")
	}
	if len(v.entries) != 1 {
		t.Errorf("%d entries resident, want 1", len(v.entries))
	}
}

func TestBanksContention(t *testing.T) {
	b := NewBanks(2, 4)
	// Two accesses to the same bank back to back: second queues.
	if d := b.Access(line(0), 100); d != 0 {
		t.Fatalf("first access delay = %d", d)
	}
	if d := b.Access(line(2), 100); d != 4 { // line 2 maps to bank 0 too
		t.Fatalf("queued access delay = %d, want 4", d)
	}
	// Different bank: no delay.
	if d := b.Access(line(1), 100); d != 0 {
		t.Fatalf("other-bank delay = %d", d)
	}
	if b.Conflicts != 1 {
		t.Errorf("Conflicts = %d", b.Conflicts)
	}
	// After the window passes, the bank is free again.
	if d := b.Access(line(0), 200); d != 0 {
		t.Errorf("later access delay = %d", d)
	}
}

func TestBanksValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBanks(0, ...) did not panic")
		}
	}()
	NewBanks(0, 1)
}

func TestLookupLine(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 4})
	l := line(6)
	if c.LookupLine(l) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(Entry{l, 3}, nil) // only a speculative version resident
	if !c.LookupLine(l) {
		t.Fatal("LookupLine missed a resident version")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestRename(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 4})
	l := line(7)
	spec := Entry{l, 5}
	committed := Entry{l, VerCommitted}
	c.Insert(spec, nil)
	if !c.Rename(spec, committed) {
		t.Fatal("Rename missed resident entry")
	}
	if c.Present(spec) || !c.Present(committed) {
		t.Error("Rename did not retag")
	}
	// Renaming onto an existing entry removes the old one.
	c.Insert(spec, nil)
	if !c.Rename(spec, committed) {
		t.Fatal("Rename-with-existing failed")
	}
	if c.Present(spec) {
		t.Error("old entry survived rename-with-existing")
	}
	if n := len(c.sets[c.setIndex(l)]); n != 1 {
		t.Errorf("set holds %d entries, want 1", n)
	}
	// Renaming a missing entry reports false.
	if c.Rename(Entry{l, 9}, Entry{l, 10}) {
		t.Error("Rename of absent entry succeeded")
	}
}

func TestRenameAcrossLinesPanics(t *testing.T) {
	c := New(Config{Name: "t", Sets: 2, Ways: 2})
	defer func() {
		if recover() == nil {
			t.Error("cross-line Rename did not panic")
		}
	}()
	c.Rename(Entry{line(0), 0}, Entry{line(1), 0})
}

func TestVictimLookupLine(t *testing.T) {
	v := NewVictim(4)
	l := line(9)
	if v.LookupLine(l) {
		t.Fatal("hit in empty victim")
	}
	v.Insert(Entry{l, 2})
	if !v.LookupLine(l) {
		t.Fatal("victim missed resident line")
	}
	if v.LookupLine(line(10)) {
		t.Error("phantom line present")
	}
}

func TestAccessors(t *testing.T) {
	if got := (Entry{line(1), VerCommitted}).String(); got != "0x00000020/committed" {
		t.Errorf("committed Entry.String = %q", got)
	}
	if got := (Entry{line(1), 3}).String(); got != "0x00000020/v3" {
		t.Errorf("spec Entry.String = %q", got)
	}
	v := NewVictim(3)
	v.Insert(Entry{line(1), 0})
	if !v.Remove(Entry{line(1), 0}) || v.Remove(Entry{line(1), 0}) {
		t.Error("victim Remove wrong")
	}
}

func TestVictimFull(t *testing.T) {
	v := NewVictim(2)
	if v.Full() {
		t.Error("empty victim reports full")
	}
	v.Insert(Entry{line(0), 0})
	v.Insert(Entry{line(1), 0})
	if !v.Full() {
		t.Error("full victim reports not-full")
	}
}

func TestVictimLookupMiss(t *testing.T) {
	v := NewVictim(2)
	v.Insert(Entry{line(0), 0})
	if v.LookupLine(line(1)) {
		t.Error("lookup of an absent line hit")
	}
	if v.Misses != 1 || v.Hits != 0 {
		t.Errorf("Misses = %d, Hits = %d; want 1, 0", v.Misses, v.Hits)
	}
}

func TestVictimNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity did not panic")
		}
	}()
	NewVictim(-1)
}

func TestVictimClass(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2})
	classOf := func(e Entry) int {
		if e.Ver == VerCommitted {
			return 0
		}
		return 1
	}
	if got := c.VictimClass(line(0), classOf); got != -1 {
		t.Errorf("empty set VictimClass = %d, want -1 (free way)", got)
	}
	c.Insert(Entry{line(0), 1}, nil)
	c.Insert(Entry{line(1), 2}, nil)
	if got := c.VictimClass(line(2), classOf); got != 1 {
		t.Errorf("all-spec set VictimClass = %d, want 1", got)
	}
	c.Remove(Entry{line(0), 1})
	c.Insert(Entry{line(0), VerCommitted}, nil)
	if got := c.VictimClass(line(2), classOf); got != 0 {
		t.Errorf("mixed set VictimClass = %d, want 0 (committed evictable)", got)
	}
}
