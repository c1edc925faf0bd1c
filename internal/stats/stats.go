package stats

import (
	"math"
	"sort"

	"sacs/internal/codec"
)

// Online accumulates count, mean and variance in a single pass using
// Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or 0 with no observations.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation (0 with no observations).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 with no observations).
func (o *Online) Max() float64 { return o.max }

// Sum returns n·mean.
func (o *Online) Sum() float64 { return o.mean * float64(o.n) }

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval on the mean. It returns 0 for fewer than two observations.
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return 1.96 * o.Std() / math.Sqrt(float64(o.n))
}

// AppendState writes the accumulator's complete internal state.
func (o *Online) AppendState(e *codec.Encoder) {
	e.Int(o.n)
	e.F64(o.mean)
	e.F64(o.m2)
	e.F64(o.min)
	e.F64(o.max)
}

// RestoreState overwrites the accumulator with the state AppendState
// wrote, as if it had Added the same observations.
func (o *Online) RestoreState(d *codec.Decoder) {
	o.n, o.mean, o.m2, o.min, o.max = d.Int(), d.F64(), d.F64(), d.F64(), d.F64()
}

// Merge folds other into o, as if every observation of other had been Added.
func (o *Online) Merge(other *Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *other
		return
	}
	n1, n2 := float64(o.n), float64(other.n)
	d := other.mean - o.mean
	mean := o.mean + d*n2/(n1+n2)
	m2 := o.m2 + other.m2 + d*d*n1*n2/(n1+n2)
	o.n += other.n
	o.mean = mean
	o.m2 = m2
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return SortedQuantile(s, q)
}

// SortedQuantile is Quantile over s already sorted ascending: reading
// several quantiles of one sample sorts it once.
func SortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs.
func Std(xs []float64) float64 {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o.Std()
}
