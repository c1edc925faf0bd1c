package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Encoder appends primitives to a growing buffer. The zero value is ready
// to use.
type Encoder struct{ buf []byte }

// NewEncoder returns an Encoder with a modest pre-grown buffer.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 1<<12)} }

// Bytes returns the encoded buffer (owned by the encoder; copy to retain
// past the encoder's next use).
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder and keeps its buffer's capacity, so an encoder
// reused for one message after another grows only while messages grow.
// Bytes returned before the Reset are overwritten by what follows it.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len reports how many bytes have been encoded.
func (e *Encoder) Len() int { return len(e.buf) }

// Reserve grows the buffer, if needed, so that n more bytes append without
// another reallocation: an encoder that can estimate what is still to come
// grows once instead of in many small steps.
func (e *Encoder) Reserve(n int) { e.buf = slices.Grow(e.buf, n) }

// Raw appends b verbatim: bytes already spelled with these primitives.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Write is Raw as an io.Writer, which never fails: a writer of a byte
// format can spell into a file and into an Encoder alike.
func (e *Encoder) Write(p []byte) (int, error) {
	e.Raw(p)
	return len(p), nil
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s appends one length-prefixed float64 list holding parts back to
// back, so a ring's two halves write as one list. The floats go through a
// local slice, stored back once: storing the buffer per float costs a GC
// write barrier each while a collection runs.
func (e *Encoder) F64s(parts ...[]float64) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	e.Uvarint(uint64(n))
	b := slices.Grow(e.buf, 8*n)
	for _, p := range parts {
		for _, x := range p {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	e.buf = b
}

// U64s appends a length-prefixed uint64 slice.
func (e *Encoder) U64s(v []uint64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Decoder walks a buffer with saturating error handling: the first
// malformed field poisons the decoder and every later read returns zero
// values, so call sites stay linear and the caller checks Err once.
// Malformed input is always an error, never a panic.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a Decoder over b (not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish reports the first decoding failure, or an error when decoding
// stopped short of the buffer's end — a well-formed message consumes
// exactly its bytes.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%d trailing bytes after payload", len(d.buf)-d.pos)
	}
	return nil
}

// Fail poisons the decoder with a formatted error unless it already
// failed: composites use it to reject bytes that parse but cannot be
// what their writer spelled.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Skip steps over n bytes.
func (d *Decoder) Skip(n int) {
	if d.fits(n) {
		d.pos += n
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.Fail("truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.Fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Int reads a signed varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// U32 reads a fixed-width little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.fits(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.Fail("truncated u64 at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.buf) {
		d.Fail("truncated bool at offset %d", d.pos)
		return false
	}
	b := d.buf[d.pos]
	d.pos++
	if b > 1 {
		d.Fail("invalid bool byte %d at offset %d", b, d.pos-1)
		return false
	}
	return b == 1
}

// StrBytes reads a length-prefixed string's bytes without copying them:
// the result shares the decoder's buffer.
func (d *Decoder) StrBytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.pos) < n {
		d.Fail("string of %d bytes overruns payload at offset %d", n, d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.StrBytes()) }

// StrIn reads a length-prefixed string through in: a spelling in has seen
// before costs no allocation.
func (d *Decoder) StrIn(in *Interner) string { return in.Intern(d.StrBytes()) }

// Interner hands out one string per spelling, so a decoder that reads the
// same few names over and over allocates each once. It holds at most
// internMaxEntries strings of internMaxBytes in all: past either bound it
// starts afresh, so a stream of unique names costs what decoding them
// without an Interner would, and never grows it. The zero value is ready to
// use; an Interner is not safe for concurrent use.
type Interner struct {
	m     map[string]string
	bytes int
}

// The Interner's bounds: room for every agent name and stimulus kind of
// the largest populations the benchmarks run (10k agents), of at most
// 1 MiB in all.
const (
	internMaxEntries = 1 << 14
	internMaxBytes   = 1 << 20
)

// Intern returns the string spelled by b, allocating only for a spelling
// the Interner does not hold. A nil Interner holds nothing: every call
// allocates, as Decoder.Str does.
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) == 0 || len(s) > internMaxBytes {
		return s
	}
	if len(in.m) == internMaxEntries || in.bytes+len(s) > internMaxBytes {
		clear(in.m)
		in.bytes = 0
	}
	if in.m == nil {
		in.m = make(map[string]string)
	}
	in.m[s] = s
	in.bytes += len(s)
	return s
}

// Count reads a length prefix for elements of at least elemSize bytes and
// rejects counts the remaining bytes cannot possibly hold, bounding
// allocation even for adversarial inputs that happen to pass a checksum.
func (d *Decoder) Count(elemSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(d.buf)-d.pos)/uint64(elemSize)+1 {
		d.Fail("count %d exceeds remaining payload at offset %d", n, d.pos)
		return 0
	}
	return int(n)
}

// F64sInto reads len(dst) floats into dst — the body of a float list whose
// count the caller has read. The bound is checked once for the whole list.
func (d *Decoder) F64sInto(dst []float64) {
	if len(dst) == 0 || !d.fits(8*len(dst)) {
		return
	}
	b := d.buf[d.pos : d.pos+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	d.pos += 8 * len(dst)
}

// F64s reads a length-prefixed float64 slice (nil when empty).
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	if n == 0 || !d.fits(8*n) {
		return nil
	}
	out := make([]float64, n)
	d.F64sInto(out)
	return out
}

// U64s reads a length-prefixed uint64 slice (nil when empty).
func (d *Decoder) U64s() []uint64 {
	n := d.Count(8)
	if n == 0 || !d.fits(8*n) {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// fits reports whether n more bytes remain, failing the decoder if not.
func (d *Decoder) fits(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.buf)-d.pos < n {
		d.Fail("%d bytes overrun payload at offset %d", n, d.pos)
		return false
	}
	return true
}

// SkipF64s steps over a length-prefixed float list and returns its count.
func (d *Decoder) SkipF64s() int {
	n := d.Count(8)
	d.Skip(8 * n)
	return n
}

// ReadN reads exactly n bytes whose count came from a length field. When
// trusted, the caller has checked n against the bytes r can hold, so the
// buffer is allocated once at its exact size. Otherwise the buffer starts
// at one 4 MiB chunk and doubles (capped at n) only once the bytes read
// have filled it, so a length field claiming gigabytes on a short stream
// fails having allocated at most one chunk or twice the bytes present.
// Reads land directly in the buffer's spare capacity.
func ReadN(r io.Reader, n uint64, trusted bool) ([]byte, error) {
	const chunk = 4 << 20
	first := n
	if !trusted {
		first = min(n, chunk)
	}
	buf := make([]byte, 0, first)
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(2*uint64(cap(buf)), n))
		copy(grown, buf)
		buf = grown
	}
}
