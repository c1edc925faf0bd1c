package knowledge

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"sacs/internal/codec"
)

// eager is the reference model: an entry whose history ring exists from
// its creation and takes every update's point, as every model's did before
// a ring was deferred to the second update.
type eager struct {
	value, variance, last float64
	n                     int
	ring                  *Ring // nil when the store keeps no history
	spelled               bool  // the state spells the one point at n == 1
}

func newEager(histLen int) *eager {
	r := &eager{}
	if histLen > 0 {
		r.ring = NewRing(histLen)
	}
	return r
}

func (r *eager) observe(alpha, x, now float64) {
	if r.n == 0 {
		r.value = x
	} else {
		d := x - r.value
		r.value += alpha * d
		r.variance += alpha * (d*d - r.variance)
	}
	r.n++
	r.last = now
	if r.ring != nil {
		r.ring.Push(now, x)
	}
}

func (r *eager) set(x, now float64) {
	r.value = x
	r.n++
	r.last = now
	if r.ring != nil {
		r.ring.Push(now, x)
	}
}

// state spells a one-entry store holding the reference model as
// AppendState writes it: the one point at n == 1 is the entry's own and
// is not spelled, unless a restored ring holds it (spelled).
func (r *eager) state(alpha float64, histLen int, name string) []byte {
	e := codec.NewEncoder()
	e.F64(alpha)
	e.Int(histLen)
	e.Varint(0)
	e.Varint(0)
	e.Uvarint(1)
	e.Str(name)
	e.Int(int(Private))
	e.F64(r.value)
	e.F64(r.variance)
	e.Int(r.n)
	e.F64(r.last)
	if r.ring != nil && (r.n != 1 || r.spelled) {
		e.F64s(r.ring.Times())
		e.F64s(r.ring.Values())
	} else {
		e.Uvarint(0)
		e.Uvarint(0)
	}
	return e.Bytes()
}

// lazyOp is one update: an Observe or a Set of x at virtual time now.
type lazyOp struct {
	set    bool
	x, now float64
}

// lazyOps returns n updates mixing Observe and Set, with -0, +0 and NaN
// values among them.
func lazyOps(n int) []lazyOp {
	specials := []float64{math.Copysign(0, -1), 0, math.NaN(), 3.5}
	ops := make([]lazyOp, n)
	for i := range ops {
		x := math.Sin(float64(i)*1.7) * 10
		if i%5 == 0 {
			x = specials[(i/5)%len(specials)]
		}
		ops[i] = lazyOp{set: i%3 == 1, x: x, now: float64(i) + 0.25}
	}
	return ops
}

func applyOp(e *Entry, r *eager, alpha float64, op lazyOp) {
	if op.set {
		e.Set(op.x, op.now)
		r.set(op.x, op.now)
	} else {
		e.Observe(op.x, op.now)
		r.observe(alpha, op.x, op.now)
	}
}

// sameBits reports whether two float lists are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkLikeEager compares everything a reader sees of e with the reference.
func checkLikeEager(t *testing.T, what string, s *Store, e *Entry, r *eager, alpha float64, histLen int) {
	t.Helper()
	slope, ok := e.Trend()
	if ok != (r.ring != nil) {
		t.Fatalf("%s: Trend ok = %v, want %v", what, ok, r.ring != nil)
	}
	if r.ring != nil && math.Float64bits(slope) != math.Float64bits(r.ring.Trend()) {
		t.Fatalf("%s: Trend %v, want %v", what, slope, r.ring.Trend())
	}
	h := e.History()
	switch {
	case (h == nil) != (r.ring == nil):
		t.Fatalf("%s: History %v, reference ring %v", what, h, r.ring)
	case h != nil && (!sameBits(h.Times(), r.ring.Times()) || !sameBits(h.Values(), r.ring.Values())):
		t.Fatalf("%s: History %v at %v, want %v at %v", what, h.Values(), h.Times(), r.ring.Values(), r.ring.Times())
	}
	if e.Updates() != r.n {
		t.Fatalf("%s: Updates %d, want %d", what, e.Updates(), r.n)
	}
	if got, want := stateBytes(s), r.state(alpha, histLen, e.Name); !bytes.Equal(got, want) {
		t.Fatalf("%s: state\n%x\nwant\n%x", what, got, want)
	}
}

// TestLazyRingMatchesEager: a model updated 1, 2, 3, 17 and 65 times —
// Observe and Set mixed, -0 and NaN values among them — reads exactly like
// one whose ring existed from creation: Trend (ok included), History,
// Updates and AppendState bytes, after every update, at history bounds 0,
// 1, 3 and 64. A restore of its state then continues like the reference
// for 70 more updates. The subtests are named shared=false: the store is
// its model's own, as every store is.
func TestLazyRingMatchesEager(t *testing.T) {
	const alpha = 0.3
	for _, histLen := range []int{0, 1, 3, 64} {
		for _, k := range []int{1, 2, 3, 17, 65} {
			name := fmt.Sprintf("hist=%d/k=%d/shared=false", histLen, k)
			t.Run(name, func(t *testing.T) {
				s := NewStore(alpha, histLen)
				e := s.Ensure("m", Private)
				r := newEager(histLen)
				checkLikeEager(t, "created", s, e, r, alpha, histLen)
				ops := lazyOps(k + 70)
				for i, op := range ops[:k] {
					applyOp(e, r, alpha, op)
					checkLikeEager(t, fmt.Sprintf("update %d", i+1), s, e, r, alpha, histLen)
				}
				if got := e.hist != nil; got != (histLen > 0 && k >= 2) {
					t.Fatalf("after %d updates the entry has a ring: %v", k, got)
				}

				cp := NewStore(alpha, histLen)
				if err := restoreBytes(cp, stateBytes(s)); err != nil {
					t.Fatal(err)
				}
				ce := cp.get("m")
				if got, want := ce.hist != nil, e.hist != nil; got != want {
					t.Fatalf("restored entry has a ring: %v, original: %v", got, want)
				}
				for i, op := range ops[k:] {
					applyOp(ce, r, alpha, op)
					checkLikeEager(t, fmt.Sprintf("restored, update %d", k+i+1), cp, ce, r, alpha, histLen)
				}
			})
		}
	}
}

// TestRestoreBuildsRingUnlessBitEqual: a history restores without a ring
// only when it is the entry's own and so is not spelled: an empty list at
// n == 0 or n == 1, where the one point is (lastUpdate, value). A spelled
// history gets a ring, so the restored model exports the file's bytes and
// continues like the reference — also a one-point list at n == 1 that is
// the entry's own point bit for bit, or differs from it by the sign of
// zero or a NaN payload; the bits no longer decide, the spelling does. The
// times and values are the history the state spells; at n == 1 an empty
// one stands for the entry's own point. The subtests are named
// shared=false, as TestLazyRingMatchesEager's are.
func TestRestoreBuildsRingUnlessBitEqual(t *testing.T) {
	const alpha = 0.3
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	cases := []struct {
		name     string
		histLen  int
		n        int
		value    float64
		last     float64
		times    []float64
		values   []float64
		wantRing bool
	}{
		{"own point", 64, 1, 2.5, 7, []float64{7}, []float64{2.5}, true},
		{"own -0", 64, 1, negZero, 7, []float64{7}, []float64{negZero}, true},
		{"own NaN", 64, 1, math.NaN(), 7, []float64{7}, []float64{math.NaN()}, true},
		{"empty at n=0", 64, 0, 0, 0, nil, nil, false},
		{"+0 under -0", 64, 1, negZero, 7, []float64{7}, []float64{0}, true},
		{"-0 time", 64, 1, 2.5, 0, []float64{negZero}, []float64{2.5}, true},
		{"other NaN", 64, 1, math.NaN(), 7, []float64{7}, []float64{otherNaN}, true},
		{"other point", 64, 1, 2.5, 7, []float64{6}, []float64{2.5}, true},
		{"own point at n=2", 64, 2, 2.5, 7, []float64{7}, []float64{2.5}, true},
		{"one point of bound 1 at n=5", 1, 5, 2.5, 7, []float64{7}, []float64{3}, true},
		{"own point of bound 1", 1, 1, 2.5, 7, []float64{7}, []float64{2.5}, true},
		{"empty at n=1", 64, 1, 2.5, 7, nil, nil, false},
		{"point at n=0", 64, 0, 2.5, 7, []float64{7}, []float64{2.5}, true},
		{"no history kept", 0, 1, 2.5, 7, nil, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name+"/shared=false", func(t *testing.T) {
			r := &eager{value: c.value, last: c.last, n: c.n, spelled: len(c.times) > 0}
			if c.histLen > 0 {
				r.ring = NewRing(c.histLen)
				if c.n == 1 && !r.spelled {
					r.ring.Push(c.last, c.value) // the entry's own point
				}
				for i := range c.times {
					r.ring.Push(c.times[i], c.values[i])
				}
			}
			st := r.state(alpha, c.histLen, "m")
			s := NewStore(alpha, 8)
			if err := restoreBytes(s, st); err != nil {
				t.Fatal(err)
			}
			e := s.get("m")
			if got := e.hist != nil; got != c.wantRing {
				t.Fatalf("restored with a ring: %v, want %v", got, c.wantRing)
			}
			checkLikeEager(t, "restored", s, e, r, alpha, c.histLen)
			for i, op := range lazyOps(20) {
				op.now += 10
				applyOp(e, r, alpha, op)
				checkLikeEager(t, fmt.Sprintf("update %d", i+1), s, e, r, alpha, c.histLen)
			}
		})
	}
}

// TestRestoreRejectsUnstorableScope: an entry whose scope does not fit a
// symbol-table slot fails the restore with ErrScope and leaves the store
// as it was.
func TestRestoreRejectsUnstorableScope(t *testing.T) {
	for _, scope := range []int{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 40} {
		e := codec.NewEncoder()
		e.F64(0.3)
		e.Int(8)
		e.Varint(0)
		e.Varint(0)
		e.Uvarint(1)
		e.Str("m")
		e.Int(scope)
		e.F64(1)
		e.F64(0)
		e.Int(1)
		e.F64(1)
		e.F64s([]float64{1})
		e.F64s([]float64{1})
		s := NewStore(0.3, 8)
		s.Observe("kept", Public, 1, 0)
		before := stateBytes(s)
		if err := restoreBytes(s, e.Bytes()); !errors.Is(err, ErrScope) {
			t.Fatalf("scope %d: restore error %v, want ErrScope", scope, err)
		}
		if !bytes.Equal(stateBytes(s), before) {
			t.Fatalf("scope %d: a failed restore changed the store", scope)
		}
	}
	for _, scope := range []Scope{Private, Public, math.MaxInt32, math.MinInt32} {
		if !scope.Storable() {
			t.Fatalf("scope %d is not storable", scope)
		}
	}
}

// TestModelSizes pins the sizes the arena chunks are chosen for: a 72 B
// entry (8 to a 576 B size class), a 40 B ring (16 to a 640 B one) and a
// 16 B symbol-table slot, which holds no name of its own.
func TestModelSizes(t *testing.T) {
	for _, c := range []struct {
		what       string
		size, want uintptr
	}{
		{"Entry", unsafe.Sizeof(Entry{}), 72},
		{"Ring", unsafe.Sizeof(Ring{}), 40},
		{"slot", unsafe.Sizeof(slot{}), 16},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d B, want %d", c.what, c.size, c.want)
		}
	}
}
