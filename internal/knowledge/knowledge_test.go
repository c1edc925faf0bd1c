package knowledge

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStoreEnsureObserveValue(t *testing.T) {
	s := NewStore(0.5, 8)
	if got := s.Value("missing", 42); got != 42 {
		t.Fatalf("default value = %v", got)
	}
	s.Observe("load", Private, 10, 1)
	if got := s.Value("load", 0); got != 10 {
		t.Fatalf("first observation should seed: %v", got)
	}
	s.Observe("load", Private, 20, 2)
	if got := s.Value("load", 0); got != 15 { // 10 + 0.5·(20−10)
		t.Fatalf("EWMA value = %v, want 15", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore(0.5, 0)
	s.Observe("x", Private, 99, 1)
	s.Delete("x")
	if got := s.Value("x", -1); got != -1 {
		t.Fatal("deleted entry still present")
	}
	s.Delete("never-existed") // must not panic
	s.Observe("x", Private, 7, 2)
	if got := s.Value("x", 0); got != 7 {
		t.Fatal("recreated entry did not reseed")
	}
}

func TestStoreScopeFilter(t *testing.T) {
	s := NewStore(0.5, 0)
	s.Observe("priv", Private, 1, 0)
	s.Observe("pub", Public, 1, 0)
	pub := s.Names(Public, true)
	if len(pub) != 1 || pub[0] != "pub" {
		t.Fatalf("public names = %v", pub)
	}
	all := s.Names(Private, false)
	if len(all) != 2 {
		t.Fatalf("all names = %v", all)
	}
}

func TestConfidenceGrowsWithSamplesDecaysWithAge(t *testing.T) {
	s := NewStore(0.3, 0)
	e := s.Ensure("m", Private)
	if e.Confidence(0) != 0 {
		t.Fatal("confidence before any observation should be 0")
	}
	e.Observe(1, 0)
	c1 := e.Confidence(0)
	for i := 1; i <= 20; i++ {
		e.Observe(1, float64(i))
	}
	c20 := e.Confidence(20)
	if c20 <= c1 {
		t.Fatalf("confidence did not grow with samples: %v vs %v", c20, c1)
	}
	stale := e.Confidence(500)
	if stale >= c20 {
		t.Fatalf("confidence did not decay with staleness: %v vs %v", stale, c20)
	}
}

func TestEntryVarianceTracksSpread(t *testing.T) {
	s := NewStore(0.2, 0)
	calm := s.Ensure("calm", Private)
	wild := s.Ensure("wild", Private)
	for i := 0; i < 200; i++ {
		calm.Observe(5, float64(i))
		v := 0.0
		if i%2 == 0 {
			v = 10
		}
		wild.Observe(v, float64(i))
	}
	if wild.Variance() <= calm.Variance() {
		t.Fatalf("variance ordering wrong: wild %v, calm %v", wild.Variance(), calm.Variance())
	}
}

func TestScopeString(t *testing.T) {
	if Private.String() != "private" || Public.String() != "public" {
		t.Fatal("scope strings wrong")
	}
}

func TestInventoryListsEntries(t *testing.T) {
	s := NewStore(0.3, 4)
	s.Observe("alpha", Private, 1, 0)
	s.Observe("beta", Public, 2, 0)
	inv := s.Inventory(0)
	if !strings.Contains(inv, "alpha") || !strings.Contains(inv, "beta") ||
		!strings.Contains(inv, "public") {
		t.Fatalf("inventory missing entries:\n%s", inv)
	}
}

func TestRingKeepsLastK(t *testing.T) {
	f := func(raw []int16) bool {
		const k = 8
		r := NewRing(k)
		for i, v := range raw {
			r.Push(float64(i), float64(v))
		}
		vals := r.Values()
		want := len(raw)
		if want > k {
			want = k
		}
		if len(vals) != want || r.Len() != want {
			return false
		}
		for j := 0; j < want; j++ {
			if vals[j] != float64(raw[len(raw)-want+j]) {
				return false
			}
		}
		// Times are increasing.
		ts := r.Times()
		for j := 1; j < len(ts); j++ {
			if ts[j] <= ts[j-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRingGrowsToBound drives rings of various bounds across their growth
// boundaries (the backing arrays start at ringSeed and grow toward the
// bound) and checks contents against a naive last-k model at every step.
func TestRingGrowsToBound(t *testing.T) {
	for _, bound := range []int{1, 3, ringSeed, ringSeed + 1, 20, 64} {
		r := NewRing(bound)
		var naive []float64
		for i := 0; i < 3*bound+2*ringSeed; i++ {
			v := float64(i*i%97) - 40
			r.Push(float64(i), v)
			naive = append(naive, v)
			if len(naive) > bound {
				naive = naive[1:]
			}
			vals := r.Values()
			if len(vals) != len(naive) || r.Len() != len(naive) {
				t.Fatalf("bound %d after %d pushes: len = %d, want %d", bound, i+1, r.Len(), len(naive))
			}
			for j := range naive {
				if vals[j] != naive[j] {
					t.Fatalf("bound %d after %d pushes: values[%d] = %v, want %v", bound, i+1, j, vals[j], naive[j])
				}
			}
		}
		if got := len(r.times()); got > bound {
			t.Errorf("bound %d: backing grew to %d, past the bound", bound, got)
		}
	}
}

// TestRingCopiesMatchReference checks the block-copy Times/Values against
// an element-by-element walk of the backing arrays (the modulo loop they
// replaced) on empty, growing, full and wrapped rings.
func TestRingCopiesMatchReference(t *testing.T) {
	reference := func(r *Ring, buf []float64) []float64 {
		out := make([]float64, 0, r.Len())
		start := int(r.head - r.size)
		if start < 0 {
			start += len(buf)
		}
		for i := 0; i < r.Len(); i++ {
			out = append(out, buf[(start+i)%len(buf)])
		}
		return out
	}
	check := func(label string, r *Ring) {
		t.Helper()
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"Times", r.Times(), reference(r, r.times())},
			{"Values", r.Values(), reference(r, r.values())},
		} {
			if c.got == nil || len(c.got) != len(c.want) {
				t.Fatalf("%s: %s = %v, want %v", label, c.name, c.got, c.want)
			}
			for i := range c.want {
				if c.got[i] != c.want[i] {
					t.Fatalf("%s: %s = %v, want %v", label, c.name, c.got, c.want)
				}
			}
		}
	}
	for _, bound := range []int{1, 5, ringSeed, 3 * ringSeed} {
		r := NewRing(bound)
		check(fmt.Sprintf("bound %d empty", bound), r)
		seen := map[string]bool{}
		for i := 0; i < 4*bound+3; i++ {
			r.Push(float64(i), -float64(i*7%13))
			state := "growing"
			switch {
			case r.Len() == r.max && r.head == 0:
				state = "full"
			case r.Len() == r.max:
				state = "wrapped"
			}
			seen[state] = true
			check(fmt.Sprintf("bound %d %s after %d pushes", bound, state, i+1), r)
		}
		if bound > 1 && !(seen["growing"] && seen["full"] && seen["wrapped"]) {
			t.Fatalf("bound %d: pushes reached only %v", bound, seen)
		}
	}
}

func TestRingMeanAndTrend(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 10; i++ {
		r.Push(float64(i), 3+2*float64(i)) // slope 2
	}
	if math.Abs(r.Trend()-2) > 1e-9 {
		t.Fatalf("trend = %v, want 2", r.Trend())
	}
	if math.Abs(r.Mean()-(3+2*4.5)) > 1e-9 {
		t.Fatalf("mean = %v", r.Mean())
	}
	empty := NewRing(4)
	if empty.Mean() != 0 || empty.Trend() != 0 {
		t.Fatal("empty ring stats should be 0")
	}
	one := NewRing(4)
	one.Push(0, 5)
	if one.Trend() != 0 {
		t.Fatal("single-point trend should be 0")
	}
}

func TestRingZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestEntryHistoryWiring(t *testing.T) {
	s := NewStore(0.3, 4)
	e := s.Ensure("h", Private)
	for i := 0; i < 6; i++ {
		e.Observe(float64(i), float64(i))
	}
	if e.History() == nil || e.History().Len() != 4 {
		t.Fatal("history ring not bounded at 4")
	}
	noHist := NewStore(0.3, 0).Ensure("n", Private)
	noHist.Observe(1, 0)
	if noHist.History() != nil {
		t.Fatal("histLen=0 should disable history")
	}
}

func TestStoreReadWriteInstrumentation(t *testing.T) {
	s := NewStore(0.3, 0)
	s.Observe("a", Private, 1, 0)
	s.Get("a")
	s.Get("a")
	if s.WriteCount() != 1 || s.ReadCount() != 2 {
		t.Fatalf("instrumentation reads=%d writes=%d", s.ReadCount(), s.WriteCount())
	}
}

func TestBadAlphaFallsBack(t *testing.T) {
	s := NewStore(-1, 0)
	s.Observe("x", Private, 10, 0)
	s.Observe("x", Private, 20, 1)
	v := s.Value("x", 0)
	if v <= 10 || v >= 20 {
		t.Fatalf("fallback alpha not applied sensibly: %v", v)
	}
}
