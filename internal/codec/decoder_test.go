package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// readNChunk is ReadN's first read size on the untrusted path.
const readNChunk = 4 << 20

// TestCountBound: Count accepts a count of elements of elemSize bytes up to
// what the bytes left can hold plus one, and fails the decoder past it; an
// elemSize below 1 counts as 1.
func TestCountBound(t *testing.T) {
	for _, c := range []struct{ left, elem int }{{0, 8}, {7, 8}, {8, 8}, {100, 8}, {100, 29}, {5, 0}, {5, -3}} {
		elem := max(c.elem, 1)
		for _, n := range []int{c.left/elem + 1, c.left/elem + 2} {
			e := NewEncoder()
			e.Uvarint(uint64(n))
			e.Raw(make([]byte, c.left))
			d := NewDecoder(e.Bytes())
			got := d.Count(c.elem)
			if ok := n <= c.left/elem+1; ok != (d.Err() == nil) {
				t.Fatalf("%d bytes left, elements of %d: count %d gave error %v", c.left, c.elem, n, d.Err())
			} else if ok && got != n || !ok && got != 0 {
				t.Fatalf("%d bytes left, elements of %d: count %d read as %d", c.left, c.elem, n, got)
			}
		}
	}
	d := NewDecoder([]byte{0x80}) // a varint cut short
	if n := d.Count(1); n != 0 || d.Err() == nil {
		t.Fatalf("truncated count read as %d, error %v", n, d.Err())
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadNChunkedGrowth: an untrusted ReadN starts at one chunk and
// doubles, capped at n, only once the bytes read fill the buffer, so the
// result holds exactly n bytes and a length field claiming far more than
// the stream holds costs at most one chunk or a few times the bytes
// present. A trusted ReadN allocates n at once.
func TestReadNChunkedGrowth(t *testing.T) {
	stream := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	for _, n := range []int{0, 1, readNChunk - 1, readNChunk, readNChunk + 1, 2*readNChunk + 5} {
		src := stream(n)
		for _, trusted := range []bool{false, true} {
			var got []byte
			var err error
			bytesAlloc := allocated(func() { got, err = ReadN(bytes.NewReader(src), uint64(n), trusted) })
			if err != nil || !bytes.Equal(got, src) || cap(got) != n {
				t.Fatalf("ReadN(%d, trusted %v): %d bytes, cap %d, error %v", n, trusted, len(got), cap(got), err)
			}
			if limit := uint64(3*n + 64<<10); bytesAlloc > limit {
				t.Fatalf("ReadN(%d, trusted %v) allocated %d bytes, want at most %d", n, trusted, bytesAlloc, limit)
			}
		}
	}
	for _, present := range []int{0, 20, readNChunk + 1} {
		src := stream(present)
		var err error
		bytesAlloc := allocated(func() { _, err = ReadN(bytes.NewReader(src), 1<<30, false) })
		if !errors.Is(err, io.ErrUnexpectedEOF) && !(present == 0 && errors.Is(err, io.EOF)) {
			t.Fatalf("1 GiB claimed over %d bytes: error %v", present, err)
		}
		if limit := uint64(readNChunk + 4*present + 64<<10); bytesAlloc > limit {
			t.Fatalf("1 GiB claimed over %d bytes allocated %d, want at most %d", present, bytesAlloc, limit)
		}
	}
}

// TestF64sOnTruncatedInput: a float list whose count the bytes left cannot
// hold fails the decoder without writing dst or moving past the list, and
// every later read yields zero values and the same error.
func TestF64sOnTruncatedInput(t *testing.T) {
	body := NewEncoder()
	for _, x := range []float64{1.5, -2, math.Inf(1)} {
		body.F64(x)
	}
	whole := body.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		d := NewDecoder(whole[:cut])
		dst := []float64{9, 9, 9}
		d.F64sInto(dst)
		if d.Err() == nil || d.pos != 0 || dst[0] != 9 || dst[2] != 9 {
			t.Fatalf("%d of %d bytes: F64sInto error %v, pos %d, dst %v", cut, len(whole), d.Err(), d.pos, dst)
		}
		first := d.Err()
		if d.F64() != 0 || d.Uvarint() != 0 || d.StrBytes() != nil || d.Err() != first {
			t.Fatal("reads after a failure returned values or replaced the error")
		}

		e := NewEncoder()
		e.Uvarint(3)
		e.Raw(whole[:cut])
		d = NewDecoder(e.Bytes())
		if d.SkipF64s(); d.Err() == nil {
			t.Fatalf("%d of %d bytes: SkipF64s stepped over a list of 3", cut, len(whole))
		}
		d = NewDecoder(e.Bytes())
		if got := d.F64s(); got != nil || d.Err() == nil {
			t.Fatalf("%d of %d bytes: F64s read %v, error %v", cut, len(whole), got, d.Err())
		}
	}
	e := NewEncoder()
	e.F64s([]float64{1.5, -2, math.Inf(1)})
	d := NewDecoder(e.Bytes())
	if n := d.SkipF64s(); n != 3 || d.Finish() != nil {
		t.Fatalf("SkipF64s over a whole list: %d, %v", n, d.Finish())
	}
}

// FuzzDecoder drives a decoder through a random sequence of reads over
// random bytes: the first input picks the reads, the second is the buffer.
// No sequence may panic, move the decoder past its buffer, read a value
// after its first failure or change that failure, or allocate more than
// the reads it made can need: a list or string no more than the bytes
// left, ReadN no more than its bound (one chunk, or a few times the bytes
// present).
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.Str("stim/load")
	e.F64s([]float64{1, 2, 3})
	e.U64s([]uint64{7})
	e.Varint(-5)
	e.Bool(true)
	f.Add([]byte{6, 11, 10, 2, 5}, e.Bytes())
	f.Add([]byte{13, 13, 13}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3})
	f.Add([]byte{8, 9, 0x19, 12, 4}, []byte{3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		d := NewDecoder(data)
		var in Interner
		var limit uint64 = 64 << 10
		var first error
		check := func(zero bool) {
			if d.pos < 0 || d.pos > len(data) {
				t.Fatalf("decoder at %d of %d bytes", d.pos, len(data))
			}
			if first != nil && (d.Err() != first || !zero) {
				t.Fatalf("a read after the failure %v returned a value or replaced it with %v", first, d.Err())
			}
			first = d.Err()
		}
		total := allocated(func() {
			for _, op := range ops {
				limit += uint64(2*(len(data)-d.pos)) + 512
				switch op % 15 {
				case 0:
					check(d.Uvarint() == 0)
				case 1:
					check(d.Varint() == 0)
				case 2:
					check(d.U64() == 0)
				case 3:
					check(d.F64() == 0)
				case 4:
					check(!d.Bool())
				case 5:
					check(d.StrBytes() == nil)
				case 6:
					check(d.Str() == "")
				case 7:
					check(d.StrIn(&in) == "")
				case 8:
					check(d.Count(int(op>>4)) == 0)
				case 9:
					check(d.F64s() == nil)
				case 10:
					check(d.U64s() == nil)
				case 11:
					check(d.SkipF64s() == 0)
				case 12:
					d.Skip(int(op >> 4))
					check(true)
				case 13:
					n := d.Uvarint()
					check(n == 0)
					if d.Err() != nil {
						continue
					}
					rest := data[d.pos:]
					limit += min(n, readNChunk) + uint64(4*len(rest))
					b, err := ReadN(bytes.NewReader(rest), n, false)
					if err == nil && uint64(len(b)) != n {
						t.Fatalf("ReadN(%d) returned %d bytes", n, len(b))
					}
				case 14:
					check(d.U32() == 0)
				}
			}
		})
		if total > limit {
			t.Fatalf("%d reads over %d bytes allocated %d bytes, want at most %d", len(ops), len(data), total, limit)
		}
	})
}
