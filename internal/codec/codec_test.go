package codec

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestPrimitivesRoundTrip: every primitive reads back what it wrote, at its
// edge values, and a decoder consumes exactly the bytes written.
func TestPrimitivesRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(e *Encoder)
		read  func(d *Decoder) any
		want  any
	}{
		{"uvarint 0", func(e *Encoder) { e.Uvarint(0) }, func(d *Decoder) any { return d.Uvarint() }, uint64(0)},
		{"uvarint max", func(e *Encoder) { e.Uvarint(math.MaxUint64) }, func(d *Decoder) any { return d.Uvarint() }, uint64(math.MaxUint64)},
		{"varint min", func(e *Encoder) { e.Varint(math.MinInt64) }, func(d *Decoder) any { return d.Varint() }, int64(math.MinInt64)},
		{"varint -1", func(e *Encoder) { e.Varint(-1) }, func(d *Decoder) any { return d.Varint() }, int64(-1)},
		{"int", func(e *Encoder) { e.Int(-123456) }, func(d *Decoder) any { return d.Int() }, -123456},
		{"u64", func(e *Encoder) { e.U64(0xdeadbeefcafef00d) }, func(d *Decoder) any { return d.U64() }, uint64(0xdeadbeefcafef00d)},
		{"u32 written raw", func(e *Encoder) { e.Write([]byte{0x0d, 0xf0, 0xfe, 0xca}) },
			func(d *Decoder) any { return d.U32() }, uint32(0xcafef00d)},
		{"f64", func(e *Encoder) { e.F64(-math.Pi) }, func(d *Decoder) any { return d.F64() }, -math.Pi},
		{"f64 inf", func(e *Encoder) { e.F64(math.Inf(-1)) }, func(d *Decoder) any { return d.F64() }, math.Inf(-1)},
		{"bool true", func(e *Encoder) { e.Bool(true) }, func(d *Decoder) any { return d.Bool() }, true},
		{"bool false", func(e *Encoder) { e.Bool(false) }, func(d *Decoder) any { return d.Bool() }, false},
		{"str", func(e *Encoder) { e.Str("stim/load") }, func(d *Decoder) any { return d.Str() }, "stim/load"},
		{"empty str", func(e *Encoder) { e.Str("") }, func(d *Decoder) any { return d.Str() }, ""},
		{"str in", func(e *Encoder) { e.Str("a000042") }, func(d *Decoder) any { return d.StrIn(new(Interner)) }, "a000042"},
		{"f64s parts", func(e *Encoder) { e.F64s([]float64{1, 2}, nil, []float64{3}) },
			func(d *Decoder) any { return d.F64s() }, []float64{1, 2, 3}},
		{"u64s", func(e *Encoder) { e.U64s([]uint64{7, 0, math.MaxUint64}) },
			func(d *Decoder) any { return d.U64s() }, []uint64{7, 0, math.MaxUint64}},
	} {
		e := NewEncoder()
		c.write(e)
		d := NewDecoder(e.Bytes())
		got := c.read(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !equal(got, c.want) {
			t.Fatalf("%s: read %v, wrote %v", c.name, got, c.want)
		}
	}
}

func equal(a, b any) bool {
	switch a := a.(type) {
	case []float64:
		b := b.([]float64)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	case []uint64:
		b := b.([]uint64)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	case float64:
		return math.Float64bits(a) == math.Float64bits(b.(float64))
	}
	return a == b
}

// TestEncoderResetKeepsCapacity: a reset encoder spells the next message in
// exactly the bytes a fresh one would, in the same buffer, without
// allocating once the buffer has grown to the message.
func TestEncoderResetKeepsCapacity(t *testing.T) {
	msg := func(e *Encoder, k int) {
		e.Str("pop")
		e.Uvarint(uint64(k))
		for i := 0; i < 500; i++ {
			e.Int(i * k)
			e.F64(float64(i) / 3)
		}
	}
	var e Encoder
	msg(&e, 1)
	capacity, first := cap(e.Bytes()), &e.Bytes()[0]
	for k := 2; k < 5; k++ {
		e.Reset()
		if e.Len() != 0 {
			t.Fatalf("Len after Reset = %d", e.Len())
		}
		msg(&e, k)
		fresh := NewEncoder()
		msg(fresh, k)
		if !bytes.Equal(e.Bytes(), fresh.Bytes()) {
			t.Fatalf("message %d: reset encoder wrote %d bytes unlike a fresh one's %d", k, e.Len(), fresh.Len())
		}
		if cap(e.Bytes()) != capacity || &e.Bytes()[0] != first {
			t.Fatalf("message %d: Reset gave up the buffer (cap %d → %d)", k, capacity, cap(e.Bytes()))
		}
	}
	if n := testing.AllocsPerRun(20, func() { e.Reset(); msg(&e, 3) }); n != 0 {
		t.Fatalf("re-encoding into a reset encoder allocated %.0f times", n)
	}
}

// TestInternerOneStringPerSpelling: a repeated spelling yields the very
// string first returned — from a different buffer, without allocating — and
// a string that outlives the buffer it was read from.
func TestInternerOneStringPerSpelling(t *testing.T) {
	var in Interner
	buf := []byte("a000042")
	first := in.Intern(buf)
	again := in.Intern([]byte("a000042"))
	if first != "a000042" || unsafe.StringData(first) != unsafe.StringData(again) {
		t.Fatalf("Intern gave %q and %q as different strings", first, again)
	}
	copy(buf, "zzzzzzz")
	if first != "a000042" {
		t.Fatalf("an interned string aliases its source buffer: now %q", first)
	}
	if in.Intern(nil) != "" || in.Intern([]byte{}) != "" || len(in.m) != 1 {
		t.Fatalf("empty spellings: Len %d, want 1", len(in.m))
	}
	var none *Interner
	if got := none.Intern(buf); got != "zzzzzzz" {
		t.Fatalf("a nil Interner spelled %q", got)
	}
	hit := []byte("a000042")
	if n := testing.AllocsPerRun(100, func() { _ = in.Intern(hit) }); n != 0 {
		t.Fatalf("an Intern hit allocated %.0f times", n)
	}
}

// TestInternerResetsAtItsBounds: past internMaxEntries spellings, or
// internMaxBytes of them, the Interner starts afresh instead of growing; a
// spelling longer than the byte bound is returned without being kept.
func TestInternerResetsAtItsBounds(t *testing.T) {
	var in Interner
	var last string
	for i := 0; i < 3*internMaxEntries; i++ {
		last = in.Intern([]byte(strings.Repeat("x", 1+i%7) + string(rune('a'+i%26)) + strconv.Itoa(i)))
		if len(in.m) > internMaxEntries {
			t.Fatalf("after %d unique spellings the Interner holds %d, bound %d", i+1, len(in.m), internMaxEntries)
		}
	}
	if again := in.Intern([]byte(last)); unsafe.StringData(again) != unsafe.StringData(last) {
		t.Fatal("the spelling interned after a reset is not held")
	}

	var big Interner
	chunk := bytes.Repeat([]byte{'y'}, internMaxBytes/4+1)
	for i := 0; i < 10; i++ {
		chunk[0] = byte('0' + i)
		big.Intern(chunk)
		if big.bytes > internMaxBytes || len(big.m) > 3 {
			t.Fatalf("after %d large spellings the Interner holds %d of %d bytes", i+1, len(big.m), big.bytes)
		}
	}
	huge := bytes.Repeat([]byte{'z'}, internMaxBytes+1)
	held := len(big.m)
	if s := big.Intern(huge); len(s) != len(huge) || len(big.m) != held {
		t.Fatalf("a %d-byte spelling was kept (%d spellings, were %d)", len(huge), len(big.m), held)
	}
}
