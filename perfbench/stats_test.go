package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	if _, ok := median(nil); ok {
		t.Fatal("median of no samples reported")
	}
	if m, _ := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v, want 2", m)
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Fatal("median reordered its input")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	// p99 at n=1000 is rank 990: exactly ten samples lie beyond it.
	v, ok := tail(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// At n=999 the rank is still 990, leaving nine beyond: refused.
	if v, ok := tail(seq(999), 0.99); ok {
		t.Fatalf("p99 of 999 samples reported as %v; want refused", v)
	}
	// p90 needs only 100 samples.
	if v, ok := tail(seq(100), 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(seq(99), 0.90); ok {
		t.Fatal("p90 of 99 samples reported; want refused")
	}
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		if _, ok := tail(seq(5000), q); ok {
			t.Fatalf("tail(q=%v) reported", q)
		}
	}
}

func TestBatchMeans(t *testing.T) {
	got := batchMeans([]float64{1, 3, 5, 7, 100}, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("batchMeans = %v, want [2 6] (partial batch dropped)", got)
	}
	if got := batchMeans([]float64{1}, 2); len(got) != 0 {
		t.Fatalf("batchMeans of a partial batch = %v, want none", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 140}, {130, 160}}, 50},
		{"nested child inside sibling", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the parent", []interval{{50, 120}, {180, 400}}, 60},
		{"outside the parent", []interval{{0, 50}, {300, 400}}, 100},
		{"covers everything", []interval{{0, 1000}}, 0},
		{"empty child", []interval{{150, 150}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioBases(t *testing.T) {
	if r := ratio(1, 0); r != 0 {
		t.Fatalf("ratio with no attempts = %v, want 0", r)
	}
	// Hit ratio: base is hits plus misses, not misses alone.
	if r := hitRatio(3, 1); r != 0.75 {
		t.Fatalf("hitRatio(3, 1) = %v, want 0.75", r)
	}
	if r := hitRatio(0, 0); r != 0 {
		t.Fatalf("hitRatio(0, 0) = %v, want 0", r)
	}
	// Parallel efficiency: base is executors × step wall time.
	if r := parallelEff(150, 100, 2); r != 0.75 {
		t.Fatalf("parallelEff(150, 100, 2) = %v, want 0.75", r)
	}
	// Overlap share: base is the number of spans, each counted once however
	// many blockers it touches.
	spans := []interval{{0, 10}, {15, 25}, {40, 50}, {60, 70}}
	blockers := []interval{{5, 12}, {20, 22}, {24, 45}}
	if r := overlapShare(spans, blockers); r != 0.75 {
		t.Fatalf("overlapShare = %v, want 0.75", r)
	}
	if r := overlapShare(nil, blockers); r != 0 {
		t.Fatalf("overlapShare of no spans = %v, want 0", r)
	}
	// Touching end to start is not an overlap (intervals are half-open).
	if r := overlapShare([]interval{{10, 20}}, []interval{{0, 10}, {20, 30}}); r != 0 {
		t.Fatalf("touching intervals overlap = %v, want 0", r)
	}
	// Batch throughput: base is the median batch, not the window.
	if r := batchRate(10, 100, []float64{0.5, 2, 0.4}); r != 2000 {
		t.Fatalf("batchRate = %v, want 2000", r)
	}
	if r := batchRate(10, 100, nil); r != 0 {
		t.Fatalf("batchRate of no batches = %v, want 0", r)
	}
	// Tracing overhead is positive when tracing made things worse, for
	// either direction of "better".
	if p := overheadPct(10, 11, false); math.Abs(p-10) > 1e-9 {
		t.Fatalf("latency overhead = %v, want 10", p)
	}
	if p := overheadPct(200, 180, true); math.Abs(p-10) > 1e-9 {
		t.Fatalf("throughput overhead = %v, want 10", p)
	}
}
