package cas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The Memo contract the build cache and the experiment runner rely on: one
// fill per key, shared with every concurrent and later caller, and a fill
// that panics leaves the zero value for good (the runner's "duplicate of a
// failed simulation" path). Run under -race.
func TestMemoContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *Memo[string, *int], fills *atomic.Int32)
	}{
		{"later calls share the filled value", func(t *testing.T, m *Memo[string, *int], fills *atomic.Int32) {
			fill := func() *int { fills.Add(1); return new(int) }
			v1, filled1 := m.Do("k", fill)
			v2, filled2 := m.Do("k", fill)
			if !filled1 || filled2 || v1 == nil || v2 != v1 {
				t.Fatalf("Do = (%p, %v) then (%p, %v), want one fill shared", v1, filled1, v2, filled2)
			}
			if _, filled := m.Do("other", fill); !filled {
				t.Fatal("a second key did not fill")
			}
			if n := fills.Load(); n != 2 {
				t.Fatalf("fill ran %d times, want once per key", n)
			}
		}},
		{"a panicking fill propagates to its caller", func(t *testing.T, m *Memo[string, *int], fills *atomic.Int32) {
			defer func() {
				if p := recover(); p != "boom" {
					t.Fatalf("recovered %v, want the fill's panic", p)
				}
			}()
			m.Do("k", func() *int { fills.Add(1); panic("boom") })
			t.Fatal("Do returned after its fill panicked")
		}},
		{"a key whose fill panicked stays zero", func(t *testing.T, m *Memo[string, *int], fills *atomic.Int32) {
			func() {
				defer func() { recover() }()
				m.Do("k", func() *int { fills.Add(1); panic("boom") })
			}()
			v, filled := m.Do("k", func() *int { fills.Add(1); return new(int) })
			if v != nil || filled {
				t.Fatalf("Do after a panicked fill = (%p, %v), want (nil, false)", v, filled)
			}
			if n := fills.Load(); n != 1 {
				t.Fatalf("fill ran %d times, want only the panicked one", n)
			}
		}},
		{"concurrent callers wait for the fill in flight", func(t *testing.T, m *Memo[string, *int], fills *atomic.Int32) {
			started, release, filler := make(chan struct{}), make(chan struct{}), make(chan struct{})
			want := new(int)
			go func() {
				defer close(filler)
				m.Do("k", func() *int { fills.Add(1); close(started); <-release; return want })
			}()
			<-started
			const waiters = 8
			var wg sync.WaitGroup
			var returned atomic.Int32
			got := make([]*int, waiters)
			for i := range waiters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, filled := m.Do("k", func() *int { fills.Add(1); return new(int) })
					if filled {
						t.Error("a waiter ran its own fill")
					}
					got[i] = v
					returned.Add(1)
				}()
			}
			time.Sleep(20 * time.Millisecond)
			if n := returned.Load(); n != 0 {
				t.Fatalf("%d waiters returned before the fill finished", n)
			}
			close(release)
			wg.Wait()
			<-filler
			for i, v := range got {
				if v != want {
					t.Fatalf("waiter %d got %p, want the in-flight fill's %p", i, v, want)
				}
			}
			if n := fills.Load(); n != 1 {
				t.Fatalf("fill ran %d times, want once", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Memo[string, *int] // the zero value is ready to use
			var fills atomic.Int32
			tc.run(t, &m, &fills)
		})
	}
}

// A bounded Memo keeps the filled values within its budget by evicting the
// least recently used, and an evicted key fills again on its next Do. Each
// value here weighs its own int.
func TestMemoBound(t *testing.T) {
	var m Memo[string, int]
	m.Bound(10, func(v int) int64 { return int64(v) })
	fills := map[string]int{}
	do := func(key string, v int) (int, bool) {
		return m.Do(key, func() int { fills[key]++; return v })
	}
	requireResident := func(bytes int64, evictions uint64) {
		t.Helper()
		if b, e := m.Resident(); b != bytes || e != evictions {
			t.Fatalf("Resident = (%d, %d), want (%d, %d)", b, e, bytes, evictions)
		}
	}
	do("a", 4)
	do("b", 4)
	requireResident(8, 0)
	do("a", 4) // a is now the most recently used
	do("c", 4) // 12 > 10: b goes, not a
	requireResident(8, 1)
	if _, filled := do("a", 4); filled {
		t.Fatal("a was evicted out of LRU order")
	}
	if v, filled := do("b", 4); !filled || v != 4 || fills["b"] != 2 {
		t.Fatalf("evicted b: Do = (%d, %v) after %d fills, want a second fill", v, filled, fills["b"])
	}
	requireResident(8, 2) // b's refill evicted c
	// A value larger than the budget is kept while it is the last filled,
	// and goes with the next fill.
	do("big", 25)
	requireResident(25, 4)
	do("d", 1)
	requireResident(1, 5)
	// A key whose fill panicked holds the zero value for good: it weighs
	// nothing and is never evicted, so it never fills again.
	func() {
		defer func() { recover() }()
		m.Do("boom", func() int { panic("boom") })
	}()
	do("e", 9)
	do("f", 9)
	if v, filled := m.Do("boom", func() int { return 1 }); filled || v != 0 {
		t.Fatalf("panicked key: Do = (%d, %v), want (0, false)", v, filled)
	}
}

// Eviction never breaks single flight: under a budget of about one value,
// goroutines hammering a few keys see at most one fill per key in flight,
// every caller gets its key's value, and a fill in flight is never evicted
// (its waiters share it, and it is resident when it lands). Run under -race.
func TestMemoBoundSingleFlight(t *testing.T) {
	var m Memo[int, *int]
	m.Bound(8, func(*int) int64 { return 8 })
	const keys, goroutines, rounds = 4, 8, 200
	var inFlight [keys]atomic.Int32
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				k := (g + i) % keys
				v, _ := m.Do(k, func() *int {
					if n := inFlight[k].Add(1); n != 1 {
						t.Errorf("key %d: %d fills in flight", k, n)
					}
					time.Sleep(10 * time.Microsecond)
					inFlight[k].Add(-1)
					return &k
				})
				if *v != k {
					t.Errorf("key %d: got key %d's value", k, *v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b, e := m.Resident(); b != 8 || e == 0 {
		t.Fatalf("Resident = (%d, %d), want one value resident after evictions", b, e)
	}

	// A fill held in flight while other keys fill past the budget lands
	// resident, and its waiter shares it without a second fill.
	started, release := make(chan struct{}), make(chan struct{})
	held := new(int)
	done := make(chan *int)
	go func() {
		v, _ := m.Do(99, func() *int { close(started); <-release; return held })
		done <- v
	}()
	<-started
	waiter := make(chan *int)
	go func() {
		v, _ := m.Do(99, func() *int { t.Error("a second fill of key 99 ran"); return nil })
		waiter <- v
	}()
	for k := range keys {
		m.Do(100+k, func() *int { return new(int) })
	}
	close(release)
	if v := <-done; v != held {
		t.Fatal("the held fill returned another value")
	}
	if v := <-waiter; v != held {
		t.Fatal("the waiter did not share the held fill")
	}
	if _, filled := m.Do(99, func() *int { return new(int) }); filled {
		t.Fatal("the held fill was not resident when it landed")
	}
}
