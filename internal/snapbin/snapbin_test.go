package snapbin

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(0xdeadbeefcafef00d)
	w.Uvarint(300)
	w.Varint(-42)
	w.Int(-1)
	w.Blob([]byte{1, 2, 3})
	w.String("hello")
	w.Raw([]byte("MG"))

	r := NewReader(w.Bytes())
	if got := r.U8("u8"); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool("b1") || r.Bool("b2") {
		t.Errorf("bools wrong")
	}
	if got := r.U64("u64"); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Uvarint("uv"); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint("v"); got != -42 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Int("i"); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Blob("blob", 16); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.String("str", 16); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Raw(2, "raw"); !bytes.Equal(got, []byte("MG")) {
		t.Errorf("Raw = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // incomplete varint
	_ = r.Uvarint("first")
	if r.Err() == nil {
		t.Fatal("want error on bad varint")
	}
	first := r.Err()
	// Later reads return zero values and keep the first error.
	if got := r.U64("later"); got != 0 {
		t.Errorf("post-error U64 = %d", got)
	}
	if r.Err() != first {
		t.Errorf("error not sticky")
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(8)
	w.Blob([]byte("abcdef"))
	enc := w.Bytes()
	r := NewReader(enc[:3])
	_ = r.Blob("blob", 64)
	if r.Err() == nil {
		t.Fatal("want truncation error")
	}
}

func TestCountCap(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(1 << 30)
	r := NewReader(w.Bytes())
	_ = r.Count("items", 1024)
	if r.Err() == nil {
		t.Fatal("want cap error")
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	_ = r.Bool("flag")
	if r.Err() == nil {
		t.Fatal("want bad-bool error")
	}
}

func TestTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U8("one")
	if err := r.Done(); err == nil {
		t.Fatal("want trailing-bytes error")
	}
}

func TestCountCappedByRemaining(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(5)
	w.U8(1)
	r := NewReader(w.Bytes())
	if n := r.Count("items", 1024); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err %v: want an error for 5 elements in 1 byte", n, r.Err())
	}
}

func TestFailDropsRestOfFrame(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Failf("semantic check")
	if v := r.U8("after"); v != 0 || r.Remaining() != 0 || r.Err().Error() != "semantic check" {
		t.Fatalf("read after Fail = %d, %d bytes left, err %v", v, r.Remaining(), r.Err())
	}
}

// unit is a State-declared type exercising every Stream helper.
type unit struct {
	count  uint64
	slot   int
	live   bool
	tag    uint8
	wide   uint64
	line   uint32
	ver    int16
	arr    [3]byte
	lines  []uint32
	byAddr map[uint32]int16
}

func (u *unit) State(s *Stream) {
	s.Uvarint(&u.count, "count")
	s.Int(&u.slot, "slot")
	s.Bool(&u.live, "live")
	s.U8(&u.tag, "tag")
	s.U64(&u.wide, "wide")
	Uvarint(s, &u.line, "line")
	Varint(s, &u.ver, "ver")
	s.Raw(u.arr[:], "arr")
	Slice(s, &u.lines, "lines", 16)
	for i := range u.lines {
		Uvarint(s, &u.lines[i], "lines entry")
	}
	Map(s, u.byAddr, "by addr", 16, func(s *Stream, k uint32, v int16) (uint32, int16) {
		Uvarint(s, &k, "key")
		Varint(s, &v, "value")
		return k, v
	})
}

func capture(u *unit) []byte {
	w := NewWriter(0)
	u.State(Capture(w))
	return w.Bytes()
}

func TestStreamRoundTrip(t *testing.T) {
	want := &unit{count: 300, slot: -1, live: true, tag: 9, wide: 1 << 63, line: 0xdead,
		ver: -2, arr: [3]byte{1, 2, 3}, lines: []uint32{7, 1 << 20},
		byAddr: map[uint32]int16{5: -1, 1: 4, 300: 2}}
	frame := capture(want)

	got := &unit{lines: []uint32{9, 9, 9, 9}, byAddr: map[uint32]int16{77: 7}}
	r := NewReader(frame)
	got.State(Restore(r))
	if err := r.Done(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
	if again := capture(got); !bytes.Equal(again, frame) {
		t.Fatal("capturing a restored value changed its bytes")
	}
}

// Map order follows keys, not insertion or iteration order.
func TestMapBytesIndependentOfInsertionOrder(t *testing.T) {
	a, b := &unit{byAddr: map[uint32]int16{}}, &unit{byAddr: map[uint32]int16{}}
	for i := uint32(0); i < 64; i++ {
		a.byAddr[i] = int16(i)
		b.byAddr[63-i] = int16(63 - i)
	}
	if !bytes.Equal(capture(a), capture(b)) {
		t.Fatal("equal maps encoded differently")
	}
}

func TestStreamRestoreRejectsOversizedSlice(t *testing.T) {
	w := NewWriter(0)
	(&unit{lines: make([]uint32, 17), byAddr: map[uint32]int16{}}).State(Capture(w))
	r := NewReader(w.Bytes())
	(&unit{byAddr: map[uint32]int16{}}).State(Restore(r))
	if r.Err() == nil {
		t.Fatal("restored 17 lines past a cap of 16")
	}
}
