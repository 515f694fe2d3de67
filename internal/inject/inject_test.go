package inject

import (
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cfg, err := Parse("seed=7,faults=40,window=200000,latch-every=128,latch-delay=8")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Faults: 40, Window: 200000, LatchEvery: 128, LatchDelay: 8}
	if cfg != want {
		t.Fatalf("Parse = %+v, want %+v", cfg, want)
	}
	back, err := Parse(cfg.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", cfg.String(), err)
	}
	if back != cfg {
		t.Errorf("round trip %+v != %+v", back, cfg)
	}
}

func TestParseDefaultsAndPartialSpec(t *testing.T) {
	cfg, err := Parse("seed=3")
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	def.Seed = 3
	if cfg != def {
		t.Errorf("partial spec = %+v, want defaults with seed 3 (%+v)", cfg, def)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "seed", "seed=x", "bogus=1", "faults=-2=3"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted garbage", s)
		}
	}
}

// TestParseBoundsFaults: a fault count up to maxFaults parses, and any
// larger one, including one that wraps a conversion to int, is an error.
// Only Parse runs here, so no schedule is allocated.
func TestParseBoundsFaults(t *testing.T) {
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"faults=0", true},
		{"faults=40", true},
		{"faults=65536", true},
		{"faults=65537", false},
		{"faults=4294967296", false},
		{"faults=9223372036854775808", false},
		{"faults=18446744073709551615", false},
		{"faults=18446744073709551616", false}, // past uint64
	} {
		cfg, err := Parse(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("Parse(%q) = %+v, %v; want ok %v", c.spec, cfg, err, c.ok)
		}
		if err == nil && (cfg.Faults < 0 || cfg.Faults > maxFaults) {
			t.Errorf("Parse(%q) faults = %d, outside [0, %d]", c.spec, cfg.Faults, maxFaults)
		}
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Faults: 30, Window: 50000, LatchEvery: 64, LatchDelay: 4}
	a, b := New(cfg), New(cfg)
	var na, nb int
	for cyc := uint64(0); cyc < cfg.Window+1; cyc++ {
		for {
			fa, oka := a.Next(cyc)
			fb, okb := b.Next(cyc)
			if oka != okb || fa != fb {
				t.Fatalf("schedules diverge at cycle %d: %+v/%v vs %+v/%v", cyc, fa, oka, fb, okb)
			}
			if !oka {
				break
			}
			na, nb = na+1, nb+1
		}
		if a.LatchDelayed(cyc) != b.LatchDelayed(cyc) {
			t.Fatalf("latch delay diverges at cycle %d", cyc)
		}
	}
	if na != cfg.Faults {
		t.Errorf("delivered %d faults, want %d", na, cfg.Faults)
	}
	if a.next != cfg.Faults || nb != na {
		t.Errorf("delivered %d/%d", a.next, nb)
	}
}

func TestSeedsProduceDistinctSchedules(t *testing.T) {
	cfg := DefaultConfig()
	a := New(cfg)
	cfg.Seed = 2
	b := New(cfg)
	same := true
	for cyc := uint64(0); cyc <= DefaultConfig().Window; cyc++ {
		fa, oka := a.Next(cyc)
		fb, okb := b.Next(cyc)
		if oka != okb || fa != fb {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules")
	}
}

func TestFaultsLandInsideWindow(t *testing.T) {
	cfg := Config{Seed: 5, Faults: 100, Window: 1000, LatchEvery: 32, LatchDelay: 2}
	j := New(cfg)
	var prev uint64
	for i := 0; i < cfg.Faults; i++ {
		f, ok := j.Next(cfg.Window + 1)
		if !ok {
			t.Fatalf("only %d of %d faults delivered", i, cfg.Faults)
		}
		if f.Cycle < 1 || f.Cycle > cfg.Window {
			t.Errorf("fault %d at cycle %d, outside [1, %d]", i, f.Cycle, cfg.Window)
		}
		if f.Cycle < prev {
			t.Errorf("schedule not sorted: %d after %d", f.Cycle, prev)
		}
		prev = f.Cycle
	}
	if _, ok := j.Next(cfg.Window + 1); ok {
		t.Error("injector delivered more faults than configured")
	}
}
