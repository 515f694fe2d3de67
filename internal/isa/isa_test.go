package isa

import "testing"

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		ALU:          "alu",
		IntDiv:       "idiv",
		Branch:       "branch",
		Load:         "load",
		Store:        "store",
		LatchAcquire: "latch-acq",
		LatchRelease: "latch-rel",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestIsMemory(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		want := k == Load || k == Store
		if got := k.IsMemory(); got != want {
			t.Errorf("%v.IsMemory() = %v, want %v", k, got, want)
		}
	}
}

func TestDefaultLatenciesMatchTable1(t *testing.T) {
	l := DefaultLatencies()
	cases := []struct {
		kind Kind
		want uint32
	}{
		{ALU, 1},
		{IntMul, 2},
		{IntDiv, 76},
		{FPOp, 2},
		{FPDiv, 15},
		{FPSqrt, 20},
		{Branch, 1},
		{Load, 1},  // issue slot only; memory latency is elsewhere
		{Store, 1}, // issue slot only
	}
	for _, c := range cases {
		if got := l.Of(c.kind); got != c.want {
			t.Errorf("latency of %v = %d, want %d", c.kind, got, c.want)
		}
	}
	if l.MispredictPenalty == 0 {
		t.Error("mispredict penalty must be nonzero")
	}
}

func TestPCRegistry(t *testing.T) {
	r := NewPCRegistry()
	a := r.Site("btree.search.key")
	b := r.Site("log.append.tail")
	if a == b {
		t.Fatalf("distinct sites got same PC %d", a)
	}
	if a == 0 || b == 0 {
		t.Fatal("PC 0 must be reserved")
	}
	if again := r.Site("btree.search.key"); again != a {
		t.Errorf("Site not stable: %d then %d", a, again)
	}
	if got := r.Name(a); got != "btree.search.key" {
		t.Errorf("Name(%d) = %q", a, got)
	}
	if got := r.Name(0); got != "<none>" {
		t.Errorf("Name(0) = %q", got)
	}
	if got := r.Name(9999); got != "<unknown>" {
		t.Errorf("Name(9999) = %q", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

// A trace entry holds a PC of at most MaxPC, so the registry issues MaxPC
// and refuses the site after it, leaving itself as it was. The test starts
// the registry at MaxPC rather than register 2^20 sites.
func TestPCRegistryStopsAtMaxPC(t *testing.T) {
	r := NewPCRegistry()
	r.next = MaxPC
	if pc := r.Site("last"); pc != MaxPC {
		t.Fatalf("Site issued %d, want MaxPC %d", pc, MaxPC)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Site issued a PC past MaxPC")
			}
		}()
		r.Site("one too many")
	}()
	if r.Len() != 1 || r.Site("last") != MaxPC {
		t.Errorf("refused site changed the registry: Len %d", r.Len())
	}
}
