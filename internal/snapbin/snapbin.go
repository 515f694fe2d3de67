// Package snapbin is the repository's one binary codec. A Writer appends
// fixed-width and varint fields to one growing buffer, and a Reader consumes
// them with a sticky error, so a decoder reads straight through and checks
// Err once. Every binary frame the repository persists is written and read
// through them: the whole-machine snapshot and the CAS entry header. Magic
// and version belong to the frame's owner; counts are uvarints, and every
// count is capped both by the caller's bound and by the bytes left, so a
// corrupted but well-framed length cannot force a giant allocation.
//
// A Stream runs one state declaration in either direction: over a Writer it
// captures, over a Reader it restores. Each checkpointed type in
// cache/cpu/predict/profile/tls/sim has one State(*Stream) method that names
// its fields once, in frame order, through pointer-taking helpers, with each
// restore-side check under Reading() next to the field it checks. Slice and
// Map stream count-prefixed slices and maps, maps in ascending key order so
// the bytes never depend on map iteration order.
package snapbin

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer accumulates an encoded frame. Every write appends to buf in
// place, so the common case updates only its length (no pointer store, no
// GC write barrier). The zero value is ready to use; NewWriter pre-sizes the
// buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity pre-allocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded frame.
func (w *Writer) Bytes() []byte { return w.buf }

// Raw appends bytes verbatim (magic strings, payloads).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U64 appends a fixed-width little-endian uint64 (float bits, digests).
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends an unsigned varint (binary.AppendUvarint's encoding).
func (w *Writer) Uvarint(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(v int64) {
	w.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// Int appends a signed int as a varint (slot indices, -1 sentinels).
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes a frame produced by Writer. The first decode failure
// latches in err and drops the rest of the frame, so every later read
// returns a zero value and codecs read straight through and check Err once.
type Reader struct {
	data []byte
	// off counts the bytes consumed: advancing an index rather than
	// re-slicing data keeps reads free of pointer stores.
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf latches a formatted error (semantic validation by codecs) and drops
// the rest of the frame.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.off = len(r.data)
	}
}

// truncated latches a read past the end of the frame. It is kept out of
// line so U8 stays small enough to inline.
//
//go:noinline
func (r *Reader) truncated(field string) { r.Failf("truncated %s", field) }

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Raw consumes n bytes verbatim; nil on error or truncation.
func (r *Reader) Raw(n int, field string) []byte {
	if n < 0 || r.Remaining() < n {
		r.Failf("truncated %s (want %d bytes, have %d)", field, n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 consumes one byte.
func (r *Reader) U8(field string) (v uint8) {
	if r.off < len(r.data) {
		v = r.data[r.off]
		r.off++
	} else {
		r.truncated(field)
	}
	return v
}

// Bool consumes a one-byte bool; any value other than 0 or 1 is an error.
func (r *Reader) Bool(field string) bool {
	v := r.U8(field)
	if v > 1 {
		r.Failf("bad bool %d for %s", v, field)
		return false
	}
	return v == 1
}

// U64 consumes a fixed-width little-endian uint64.
func (r *Reader) U64(field string) uint64 {
	if r.Remaining() < 8 {
		r.truncated(field)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// Uvarint consumes an unsigned varint. One-byte values (small counts, run
// lengths and PCs) skip binary.Uvarint.
func (r *Reader) Uvarint(field string) (v uint64) {
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		v = uint64(r.data[r.off])
		r.off++
	} else {
		v = r.uvarint(field)
	}
	return v
}

func (r *Reader) uvarint(field string) uint64 {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad varint for %s", field)
		return 0
	}
	r.off += n
	return v
}

// Varint consumes a zig-zag signed varint.
func (r *Reader) Varint(field string) int64 {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad varint for %s", field)
		return 0
	}
	r.off += n
	return v
}

// Int consumes a signed int encoded by Writer.Int.
func (r *Reader) Int(field string) int { return int(r.Varint(field)) }

// Count consumes an element count and rejects values above max, or above
// the bytes left (every counted element takes at least one byte), keeping a
// corrupted-but-well-framed length from forcing a giant allocation.
func (r *Reader) Count(field string, max int) int {
	n := r.Uvarint(field)
	switch {
	case n > uint64(max):
		r.Failf("implausible %s count %d (cap %d)", field, n, max)
		return 0
	case n > uint64(r.Remaining()):
		r.Failf("truncated %s (%d elements in %d bytes)", field, n, r.Remaining())
		return 0
	}
	return int(n)
}

// Blob consumes a length-prefixed byte string of at most max bytes. The
// returned slice aliases the frame.
func (r *Reader) Blob(field string, max int) []byte {
	return r.Raw(r.Count(field, max), field)
}

// String consumes a length-prefixed string of at most max bytes.
func (r *Reader) String(field string, max int) string {
	return string(r.Blob(field, max))
}

// Done verifies the frame was fully consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%d trailing bytes after frame", n)
	}
	return nil
}

// Stream is one direction of a state declaration: capture when it wraps a
// Writer, restore when it wraps a Reader. Field helpers take a pointer to
// the field: capturing encodes *p, restoring decodes into *p. Field names
// only label decode errors, so pass constant strings (building one per
// entry allocates on every capture).
type Stream struct {
	w *Writer
	r *Reader
}

// Capture returns a stream that encodes into w.
func Capture(w *Writer) *Stream { return &Stream{w: w} }

// Restore returns a stream that decodes from r.
func Restore(r *Reader) *Stream { return &Stream{r: r} }

// Reading reports whether the stream restores.
func (s *Stream) Reading() bool { return s.r != nil }

// Err returns the first restore failure; capture never fails.
func (s *Stream) Err() error {
	if s.r == nil {
		return nil
	}
	return s.r.err
}

// Failf latches a restore-side validation failure.
func (s *Stream) Failf(format string, args ...any) {
	if s.r != nil {
		s.r.Failf(format, args...)
	}
}

// Uvarint streams a uint64 as an unsigned varint.
func (s *Stream) Uvarint(p *uint64, field string) {
	if s.r != nil {
		*p = s.r.Uvarint(field)
		return
	}
	s.w.Uvarint(*p)
}

// Int streams an int as a zig-zag varint.
func (s *Stream) Int(p *int, field string) {
	if s.r != nil {
		*p = s.r.Int(field)
		return
	}
	s.w.Int(*p)
}

// U64 streams a uint64 at fixed width.
func (s *Stream) U64(p *uint64, field string) {
	if s.r != nil {
		*p = s.r.U64(field)
		return
	}
	s.w.U64(*p)
}

// U8 streams one byte.
func (s *Stream) U8(p *uint8, field string) {
	if s.r != nil {
		*p = s.r.U8(field)
		return
	}
	s.w.U8(*p)
}

// Bool streams a bool as one byte.
func (s *Stream) Bool(p *bool, field string) {
	if s.r != nil {
		*p = s.r.Bool(field)
		return
	}
	s.w.Bool(*p)
}

// Raw streams len(b) bytes verbatim: a fixed-size array's contents.
func (s *Stream) Raw(b []byte, field string) {
	if s.r != nil {
		copy(b, s.r.Raw(len(b), field))
		return
	}
	s.w.Raw(b)
}

// Len streams an element count: capturing writes *n, restoring reads a
// count of at most max into *n.
func (s *Stream) Len(n *int, field string, max int) {
	if s.r != nil {
		*n = s.r.Count(field, max)
		return
	}
	s.w.Uvarint(uint64(*n))
}

// unsigned and signed are the integer kinds the varint helpers take, named
// types included (addresses, PCs, versions).
type (
	unsigned interface {
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
	}
	signed interface {
		~int | ~int8 | ~int16 | ~int32 | ~int64
	}
)

// Uvarint streams an unsigned integer as a varint. Restoring truncates to
// the width of T, as a conversion would.
func Uvarint[T unsigned](s *Stream, p *T, field string) {
	if s.r != nil {
		*p = T(s.r.Uvarint(field))
		return
	}
	s.w.Uvarint(uint64(*p))
}

// Varint streams a signed integer as a zig-zag varint.
func Varint[T signed](s *Stream, p *T, field string) {
	if s.r != nil {
		*p = T(s.r.Varint(field))
		return
	}
	s.w.Varint(int64(*p))
}

// Slice streams the length of *p. Capturing writes it; restoring reads a
// count of at most max and resizes *p to it, reusing its backing array and
// zeroing the elements. The caller then streams each element of *p.
func Slice[T any](s *Stream, p *[]T, field string, max int) {
	n := len(*p)
	s.Len(&n, field, max)
	if s.r == nil {
		return
	}
	if cap(*p) < n {
		*p = make([]T, n)
		return
	}
	*p = (*p)[:n]
	clear(*p)
}

// Map streams m as a count and its entries in ascending key order; entry
// streams one key and value and returns them. Restoring replaces m's
// contents with at most max decoded entries.
func Map[K cmp.Ordered, V any](s *Stream, m map[K]V, field string, max int, entry func(s *Stream, k K, v V) (K, V)) {
	MapFunc(s, m, field, max, cmp.Compare[K], entry)
}

// MapFunc is Map with keys ordered by compare.
func MapFunc[K comparable, V any](s *Stream, m map[K]V, field string, max int, compare func(a, b K) int, entry func(s *Stream, k K, v V) (K, V)) {
	if s.r != nil {
		n := s.r.Count(field, max)
		clear(m)
		for i := 0; i < n && s.r.err == nil; i++ {
			var k K
			var v V
			if k, v = entry(s, k, v); s.r.err == nil {
				m[k] = v
			}
		}
		return
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	s.w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		entry(s, k, m[k])
	}
}
