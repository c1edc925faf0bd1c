package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, one gauge and one
// histogram from many goroutines — under -race this is the "leave it on in
// the hot path" safety proof — and checks the totals are exact (atomics
// lose nothing).
func TestConcurrentInstruments(t *testing.T) {
	const goroutines, per = 16, 10_000
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	g := reg.Gauge("test_depth", "depth")
	h := reg.Histogram("test_latency_seconds", "latency", Seconds, DurationBounds())

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				// Spread observations across buckets, including +Inf.
				h.Observe(int64(i*j) * 1_000_000)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*per {
		t.Errorf("histogram count = %d, want %d", got, goroutines*per)
	}
}

// TestConcurrentRegistration has goroutines race to register the same and
// distinct series while another renders — registration must be idempotent
// (same instrument back) and rendering race-free.
func TestConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	first := reg.Counter("reg_total", "c", L("k", "shared"))
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if c := reg.Counter("reg_total", "c", L("k", "shared")); c != first {
					t.Errorf("re-registration returned a different instrument")
					return
				}
				reg.Counter("reg_total", "c", L("k", fmt.Sprintf("g%d", i))).Inc()
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if got := reg.Counter("reg_total", "c", L("k", fmt.Sprintf("g%d", i))).Value(); got != 100 {
			t.Errorf("series g%d = %d, want 100", i, got)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5 (negative add must be dropped)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	// {5,10} → ≤10; {11,100} → ≤100; {500} → ≤1000; {5000} → +Inf
	want := []int64{2, 2, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 || h.Sum() != 5+10+11+100+500+5000 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

// TestHistogramMerge merges concurrently-filled histograms and checks the
// fold is exact; a shape mismatch must be a loud error.
func TestHistogramMerge(t *testing.T) {
	bounds := []int64{10, 100}
	total := NewHistogram(bounds)
	parts := make([]*Histogram, 4)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = NewHistogram(bounds)
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				parts[i].Observe(int64(j % 200))
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		if err := total.Merge(p); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	if got := total.Count(); got != 4000 {
		t.Errorf("merged count = %d, want 4000", got)
	}
	var wantSum int64
	for j := 0; j < 1000; j++ {
		wantSum += int64(j % 200)
	}
	if got := total.Sum(); got != 4*wantSum {
		t.Errorf("merged sum = %d, want %d", got, 4*wantSum)
	}
	if err := total.Merge(NewHistogram([]int64{1, 2, 3})); err == nil {
		t.Error("merging different shapes must fail")
	}
}

func TestRegistrationCollisionsPanic(t *testing.T) {
	for name, f := range map[string]func(r *Registry){
		"kind":      func(r *Registry) { r.Counter("m", "h"); r.Gauge("m", "h") },
		"scale":     func(r *Registry) { r.Counter("m", "h"); r.ScaledCounter("m", "h", Seconds) },
		"bounds":    func(r *Registry) { r.Histogram("m", "h", 1, []int64{1}); r.Histogram("m", "h", 1, []int64{2}) },
		"badName":   func(r *Registry) { r.Counter("9bad", "h") },
		"badLabel":  func(r *Registry) { r.Counter("m", "h", L("bad-key", "v")) },
		"emptyHist": func(r *Registry) { r.Histogram("m", "h", 1, nil) },
		"unsorted":  func(r *Registry) { r.Histogram("m", "h", 1, []int64{5, 3}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f(NewRegistry())
		})
	}
}
