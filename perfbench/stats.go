package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values when
// len(xs) is even), or 0 and false for no samples. xs is not modified.
func median(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// tail returns the nearest-rank q-quantile of xs (0 < q < 1): the value at
// rank ceil(q·n). It refuses — returning false — when fewer than minBeyond
// samples lie beyond that rank, so a p99 needs at least 1000 samples.
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// batchMeans returns the means of consecutive groups of n samples, dropping
// a trailing partial group.
func batchMeans(xs []float64, n int) []float64 {
	out := make([]float64, 0, len(xs)/n)
	for i := 0; i+n <= len(xs); i += n {
		var sum float64
		for _, x := range xs[i : i+n] {
			sum += x
		}
		out = append(out, sum/float64(n))
	}
	return out
}

// ratio is num/den, or 0 when den is not positive (no attempts, no ratio).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// interval is a closed-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that children cover.
// Children may overlap each other and stick out of the parent; only their
// union clipped to the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// overlapShare is the share of spans that intersect at least one of the
// blockers; the base is len(spans). Blockers must be sorted by start and
// must not overlap each other (one driver goroutine issues them).
func overlapShare(spans, blockers []interval) float64 {
	hit := 0
	for _, s := range spans {
		// First blocker ending after s starts; it overlaps s when it also
		// starts before s ends.
		i := sort.Search(len(blockers), func(i int) bool { return blockers[i].end > s.start })
		if i < len(blockers) && blockers[i].start < s.end {
			hit++
		}
	}
	return ratio(float64(hit), float64(len(spans)))
}

// parallelEff is busy time over the capacity the step wall time offered:
// Σ shard busy / (executors × Σ step wall). 1 means every executor was busy
// for the whole step.
func parallelEff(busyNs, wallNs int64, executors int) float64 {
	return ratio(float64(busyNs), float64(executors)*float64(wallNs))
}

// hitRatio is hits over all lookups (hits plus misses).
func hitRatio(hits, misses int64) float64 {
	return ratio(float64(hits), float64(hits+misses))
}

// overheadPct is how much slower the traced value is than the untraced
// one, in percent of the untraced value; for a metric where higher is
// better the sign is flipped so a positive number always means "tracing
// cost this much".
func overheadPct(untraced, traced float64, higherBetter bool) float64 {
	d := ratio(traced-untraced, untraced) * 100
	if higherBetter {
		return -d
	}
	return d
}
