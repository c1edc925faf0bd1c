package knowledge

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"sacs/internal/codec"
)

// stateBytes is s's state as AppendState writes it.
func stateBytes(s *Store) []byte {
	e := codec.NewEncoder()
	s.AppendState(e)
	return e.Bytes()
}

// restoreBytes restores s from b, which RestoreState must consume exactly.
func restoreBytes(s *Store, b []byte) error {
	d := codec.NewDecoder(b)
	if err := s.RestoreState(d); err != nil {
		return err
	}
	return d.Finish()
}

// TestRestoredStoreContinuesLikeOriginal: a RestoreState(AppendState())
// copy of a store must be the store it was exported from, not just equal in
// content. Both push the same points afterwards and must stay state-equal
// with bit-equal Trends after every push, across ring bounds below, at and
// above the seed size and histories that are empty, partly grown, exactly
// at a growth step, one past it and full at the bound.
func TestRestoredStoreContinuesLikeOriginal(t *testing.T) {
	for _, histLen := range []int{1, 5, 8, 64} {
		for _, k := range []int{0, 1, 7, 8, 9, 33, histLen} {
			t.Run(fmt.Sprintf("hist=%d/k=%d", histLen, k), func(t *testing.T) {
				orig := NewStore(0.3, histLen)
				for i := 0; i < k; i++ {
					x := math.Sin(float64(i)) * 10
					orig.Observe("a", Private, x, float64(i))
					if i%2 == 0 {
						orig.Observe("b", Public, -x, float64(i))
					}
				}
				orig.Ensure("c", Private) // a model with no history at all
				cp := NewStore(0.9, 3)    // parameters overwritten by RestoreState
				if err := restoreBytes(cp, stateBytes(orig)); err != nil {
					t.Fatal(err)
				}
				for name, o := range orig.entries {
					if o != nil {
						if got, want := len(cp.entries[name].hist.t), len(o.hist.t); got != want {
							t.Fatalf("%s: restored ring backing length %d, want %d", name, got, want)
						}
					}
				}
				for i := k; i < k+100; i++ {
					x := math.Cos(float64(i)) * float64(i%7)
					for _, s := range []*Store{orig, cp} {
						s.Observe("a", Private, x, float64(i))
						s.Observe("c", Private, x/2, float64(i))
					}
					if a, b := stateBytes(cp), stateBytes(orig); !bytes.Equal(a, b) {
						t.Fatalf("push %d: states diverged:\n%x\n%x", i-k, a, b)
					}
					for _, name := range []string{"a", "c"} {
						to, _ := orig.entries[name].Trend()
						tc, _ := cp.entries[name].Trend()
						if math.Float64bits(to) != math.Float64bits(tc) {
							t.Fatalf("push %d: %s trend %v, want %v", i-k, name, tc, to)
						}
					}
				}
			})
		}
	}
}

var (
	mapSink   map[string]*Entry
	storeSink *Store
)

// TestSetStateAllocatesPerStore pins the restore path's allocation to the
// registry map plus two blocks per store — the entry block and the history
// slab — however many entries and points it restores. The measured
// restores find every name in the store the first one filled, so they
// reuse its strings; a restore into a fresh store spends one more block on
// the names, which is bounded here too.
func TestSetStateAllocatesPerStore(t *testing.T) {
	for _, entries := range []int{8, 256} {
		src := NewStore(0.2, 64)
		var names []string
		for e := 0; e < entries; e++ {
			names = append(names, fmt.Sprintf("m%03d", e))
			for i := 0; i < 20; i++ {
				src.Observe(names[e], Private, float64(i*e), float64(i))
			}
		}
		st := stateBytes(src)
		dst := NewStore(0.2, 64)
		allocs := testing.AllocsPerRun(20, func() {
			if err := dst.RestoreState(codec.NewDecoder(st)); err != nil {
				t.Fatal(err)
			}
		})
		registry := testing.AllocsPerRun(20, func() {
			mapSink = make(map[string]*Entry, entries)
			for _, n := range names {
				mapSink[n] = nil
			}
		})
		if allocs > registry+2 {
			t.Errorf("RestoreState of %d entries: %v allocations, want at most %v (registry map %v, entry block, slab)",
				entries, allocs, registry+2, registry)
		}
		fresh := testing.AllocsPerRun(20, func() {
			storeSink = NewStore(0.2, 64)
			if err := storeSink.RestoreState(codec.NewDecoder(st)); err != nil {
				t.Fatal(err)
			}
		})
		store := testing.AllocsPerRun(20, func() { storeSink = NewStore(0.2, 64) })
		if fresh > store+registry+3 {
			t.Errorf("RestoreState of %d entries into a fresh store: %v allocations, want at most %v "+
				"(store %v, registry map %v, entry block, slab, names)",
				entries, fresh, store+registry+3, store, registry)
		}
	}
}

// entryBytes spells one store entry with the given histories.
func entryBytes(e *codec.Encoder, name string, histT, histV []float64) {
	e.Str(name)
	e.Int(int(Private))
	e.F64(0)
	e.F64(0)
	e.Int(len(histT))
	e.F64(0)
	e.F64s(histT)
	e.F64s(histV)
}

// TestSetStateRejectsMalformed: malformed states are rejected without
// touching the store. SkipState, which walks lengths only, rejects all but
// a duplicate name.
func TestSetStateRejectsMalformed(t *testing.T) {
	store := func(histLen int, entries func(e *codec.Encoder)) []byte {
		e := codec.NewEncoder()
		e.F64(0.2)
		e.Int(histLen)
		e.Varint(0)
		e.Varint(0)
		entries(e)
		return e.Bytes()
	}
	for _, c := range []struct {
		name   string
		st     []byte
		parses bool // SkipState accepts it
	}{
		{"mismatched history", store(4, func(e *codec.Encoder) {
			e.Uvarint(1)
			entryBytes(e, "m", []float64{1}, nil)
		}), false},
		{"history over bound", store(1, func(e *codec.Encoder) {
			e.Uvarint(1)
			entryBytes(e, "m", []float64{1, 2}, []float64{1, 2})
		}), false},
		{"duplicate entry", store(4, func(e *codec.Encoder) {
			e.Uvarint(2)
			entryBytes(e, "m", []float64{1}, []float64{2})
			entryBytes(e, "m", []float64{1}, []float64{2})
		}), true},
		{"lying entry count", store(4, func(e *codec.Encoder) {
			e.Uvarint(3)
			entryBytes(e, "m", []float64{1}, []float64{2})
		}), false},
		{"truncated history", store(4, func(e *codec.Encoder) {
			e.Uvarint(1)
			entryBytes(e, "m", []float64{1}, []float64{2})
		})[:40], false},
	} {
		s := NewStore(0.2, 4)
		s.Observe("keep", Private, 1, 1)
		if err := restoreBytes(s, c.st); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
		if s.Get("keep") == nil {
			t.Errorf("%s: a rejected state replaced the store's contents", c.name)
		}
		d := codec.NewDecoder(c.st)
		if SkipState(d); (d.Finish() == nil) != c.parses {
			t.Errorf("%s: SkipState error %v, want parses=%v", c.name, d.Finish(), c.parses)
		}
	}
}

// TestMinEntrySize: the bound RestoreState and SkipState give the entry
// count must be what AppendState writes for the emptiest entry.
func TestMinEntrySize(t *testing.T) {
	s := NewStore(0.2, 0)
	empty := len(stateBytes(s))
	s.Ensure("", Private)
	if got := len(stateBytes(s)) - empty; got != minEntrySize {
		t.Errorf("an empty entry encodes to %d bytes, minEntrySize says %d", got, minEntrySize)
	}
}
