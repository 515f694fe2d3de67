package cas

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Fault-injection tests: the store's behavior under injected disk errors,
// torn writes, and latency spikes, through a local stub on the store's fault
// seam (SetFaults).

// stubFaults injects a fixed fault on every Nth operation of each kind.
type stubFaults struct {
	loadEvery, storeEvery uint64
	load, store           DiskFault

	loads, stores atomic.Uint64
}

func (f *stubFaults) Disk(op string) (DiskFault, bool) {
	switch op {
	case "load":
		if f.loadEvery > 0 && f.loads.Add(1)%f.loadEvery == 0 {
			return f.load, true
		}
	case "store":
		if f.storeEvery > 0 && f.stores.Add(1)%f.storeEvery == 0 {
			return f.store, true
		}
	}
	return DiskFault{}, false
}

func TestInjectedLoadErrorIsMissNotCorruption(t *testing.T) {
	s := open(t, t.TempDir())
	s.Put("aa11", []byte("payload"))
	s.SetFaults(&stubFaults{loadEvery: 1, load: DiskFault{Err: errors.New("injected EIO")}})
	if _, ok := s.Get("aa11"); ok {
		t.Fatal("Get succeeded through an injected read error")
	}
	s.SetFaults(nil)
	got, ok := s.Get("aa11")
	if !ok || string(got) != "payload" {
		t.Fatalf("entry lost after a transient read error: %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Corrupt != 0 {
		t.Errorf("transient read error counted as corruption: %+v", st)
	}
	if st.Entries != 1 {
		t.Errorf("transient read error dropped the entry accounting: %+v", st)
	}
}

func TestTornWriteQuarantinedOnRead(t *testing.T) {
	s := open(t, t.TempDir())
	s.SetFaults(&stubFaults{storeEvery: 1, store: DiskFault{TornBytes: headerSize + 3}})
	s.Put("bb22", []byte("a body longer than three bytes"))
	s.SetFaults(nil)

	if _, ok := s.Get("bb22"); ok {
		t.Fatal("Get served a torn entry")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1 (torn frame must quarantine)", st.Corrupt)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("quarantine left accounting behind: %+v", st)
	}

	// The slot is clean: a rebuild overwrites and round-trips.
	body := []byte("rebuilt body")
	s.Put("bb22", body)
	got, ok := s.Get("bb22")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("rebuild after torn-write quarantine failed: %q, %v", got, ok)
	}
}

func TestInjectedStoreErrorDropsPut(t *testing.T) {
	s := open(t, t.TempDir())
	s.SetFaults(&stubFaults{storeEvery: 1, store: DiskFault{Err: errors.New("injected ENOSPC")}})
	s.Put("cc33", []byte("never lands"))
	s.SetFaults(nil)
	if _, ok := s.Get("cc33"); ok {
		t.Fatal("Get hit an entry whose Put was injected to fail")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("failed Put left accounting behind: %+v", st)
	}
}

func TestObserverSeesLatencyAndFailures(t *testing.T) {
	s := open(t, t.TempDir())
	var mu sync.Mutex
	type obs struct {
		op     string
		d      time.Duration
		failed bool
	}
	var seen []obs
	s.SetObserver(func(op string, d time.Duration, failed bool) {
		mu.Lock()
		seen = append(seen, obs{op, d, failed})
		mu.Unlock()
	})

	const spike = 5 * time.Millisecond
	s.SetFaults(&stubFaults{loadEvery: 2, load: DiskFault{Delay: spike, Err: errors.New("slow EIO")}})
	s.Put("dd44", []byte("x")) // store, ok
	s.Get("dd44")              // load 1: clean hit
	s.Get("dd44")              // load 2: injected slow error
	s.Get("nope")              // load 3: clean miss — NOT a failure

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("observer saw %d ops, want 4: %+v", len(seen), seen)
	}
	if seen[0].op != "store" || seen[0].failed {
		t.Errorf("store observation = %+v, want healthy store", seen[0])
	}
	if seen[1].op != "load" || seen[1].failed {
		t.Errorf("clean hit observation = %+v", seen[1])
	}
	if !seen[2].failed || seen[2].d < spike {
		t.Errorf("injected slow error observation = %+v, want failed with >= %v latency", seen[2], spike)
	}
	if seen[3].failed {
		t.Errorf("clean miss observation = %+v, want not-failed", seen[3])
	}
}

// The satellite requirement: quarantine and eviction stay correct under
// concurrent injected I/O errors and torn writes (run under -race by
// CI). Every surviving readable entry must round-trip exactly, and the
// store's accounting must match the directory when the dust settles.
func TestConcurrentChaosQuarantineAndEviction(t *testing.T) {
	// A cap small enough that eviction churns throughout the run.
	s := openCapped(t, t.TempDir(), 8<<10)
	s.SetFaults(&stubFaults{
		loadEvery:  7,
		load:       DiskFault{Err: errors.New("injected EIO"), Delay: 50 * time.Microsecond},
		storeEvery: 5,
		store:      DiskFault{TornBytes: headerSize + 1},
	})

	const (
		workers = 8
		keys    = 32
		rounds  = 40
	)
	payload := func(k int) []byte {
		return bytes.Repeat([]byte{byte(k)}, 256+k)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				key := fmt.Sprintf("k%02d", k)
				if got, ok := s.Get(key); ok {
					if !bytes.Equal(got, payload(k)) {
						t.Errorf("key %s served wrong bytes under chaos", key)
					}
				} else {
					s.Put(key, payload(k))
				}
			}
		}(w)
	}
	wg.Wait()
	s.SetFaults(nil)

	// Post-chaos: every key either round-trips exactly or misses cleanly
	// (evicted / torn-then-quarantined); a rebuild always lands.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%02d", k)
		got, ok := s.Get(key)
		if !ok {
			s.Put(key, payload(k))
			got, ok = s.Get(key)
		}
		if !ok || !bytes.Equal(got, payload(k)) {
			t.Fatalf("key %s does not round-trip after chaos: ok=%v", key, ok)
		}
	}
	st := s.Stats()
	if st.Bytes > 8<<10+int64(headerSize+keys+512) {
		t.Errorf("eviction lost control of the budget under chaos: %d bytes resident", st.Bytes)
	}
	if st.Corrupt == 0 {
		t.Error("no torn write was ever detected — injection did not exercise quarantine")
	}
	if st.Evictions == 0 {
		t.Error("no eviction under a tiny budget — the cap was not exercised")
	}
}
