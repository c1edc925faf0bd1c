package knowledge

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestRestoredStoreContinuesLikeOriginal: a SetState(State()) copy of a
// store must be the store it was exported from, not just equal in
// content. Both push the same points afterwards and must stay State-equal
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
				cp := NewStore(0.9, 3)    // parameters overwritten by SetState
				if err := cp.SetState(orig.State()); err != nil {
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
					if !reflect.DeepEqual(cp.State(), orig.State()) {
						t.Fatalf("push %d: states diverged:\n%+v\n%+v", i-k, cp.State(), orig.State())
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

var mapSink map[string]*Entry

// TestSetStateAllocatesPerStore pins the restore path's allocation to the
// registry map plus two blocks per store — the entry block and the history
// slab — however many entries and points it restores.
func TestSetStateAllocatesPerStore(t *testing.T) {
	for _, entries := range []int{8, 256} {
		src := NewStore(0.2, 64)
		for e := 0; e < entries; e++ {
			for i := 0; i < 20; i++ {
				src.Observe(fmt.Sprintf("m%03d", e), Private, float64(i*e), float64(i))
			}
		}
		st := src.State()
		dst := NewStore(0.2, 64)
		allocs := testing.AllocsPerRun(20, func() {
			if err := dst.SetState(st); err != nil {
				t.Fatal(err)
			}
		})
		registry := testing.AllocsPerRun(20, func() {
			mapSink = make(map[string]*Entry, entries)
			for _, es := range st.Entries {
				mapSink[es.Name] = nil
			}
		})
		if allocs > registry+2 {
			t.Errorf("SetState of %d entries: %v allocations, want at most %v (registry map %v, entry block, slab)",
				entries, allocs, registry+2, registry)
		}
	}
}

func TestSetStateRejectsMalformed(t *testing.T) {
	ok := EntryState{Name: "m", HistT: []float64{1}, HistV: []float64{2}}
	for name, st := range map[string]StoreState{
		"mismatched history": {HistLen: 4, Entries: []EntryState{{Name: "m", HistT: []float64{1}}}},
		"history over bound": {HistLen: 1, Entries: []EntryState{{Name: "m", HistT: []float64{1, 2}, HistV: []float64{1, 2}}}},
		"duplicate entry":    {HistLen: 4, Entries: []EntryState{ok, ok}},
	} {
		s := NewStore(0.2, 4)
		s.Observe("keep", Private, 1, 1)
		if err := s.SetState(st); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
		if s.Get("keep") == nil {
			t.Errorf("%s: a rejected state replaced the store's contents", name)
		}
	}
}
