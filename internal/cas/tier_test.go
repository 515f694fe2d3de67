package cas

import (
	"errors"
	"os"
	"path/filepath"
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

// Load is get plus decode: a miss is ErrNotFound, a decoded entry comes back,
// and an entry the decoder rejects is quarantined with the decoder's error.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) (string, error) {
		if string(b) == "bad" {
			return "", errors.New("undecodable")
		}
		return string(b), nil
	}
	if _, err := Load(s, "ns", "missing", decode); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: err = %v, want ErrNotFound", err)
	}
	if _, err := Load((*Store)(nil), "ns", "k", decode); !errors.Is(err, ErrNotFound) {
		t.Fatalf("nil store: err = %v, want ErrNotFound", err)
	}
	s.Put("ns", "good", []byte("value"))
	if v, err := Load(s, "ns", "good", decode); err != nil || v != "value" {
		t.Fatalf("hit = (%q, %v), want (\"value\", nil)", v, err)
	}
	s.Put("ns", "bad", []byte("bad"))
	if _, err := Load(s, "ns", "bad", decode); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("undecodable: err = %v, want the decoder's error", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want the rejected entry quarantined", st.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, entryPath("ns", "bad")+".quarantined")); err != nil {
		t.Fatalf("no quarantined debris: %v", err)
	}
	if _, err := Load(s, "ns", "bad", decode); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine: err = %v, want ErrNotFound", err)
	}
}
