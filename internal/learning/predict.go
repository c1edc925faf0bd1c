package learning

import "math"

// Predictor is an online one-step-ahead forecaster: Observe a value, then
// Predict the next. Predictors realise time-awareness: knowledge of likely
// futures built from history.
type Predictor interface {
	Observe(x float64)
	Predict() float64
	Name() string
}

// EWMA is an exponentially weighted moving average: prediction is the
// smoothed level.
type EWMA struct {
	Alpha float64
	level float64
	n     int
}

// NewEWMA returns an EWMA predictor with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("learning: EWMA alpha out of (0,1]")
	}
	return &EWMA{Alpha: alpha}
}

// Observe implements Predictor.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.level = x
	} else {
		e.level += e.Alpha * (x - e.level)
	}
	e.n++
}

// Predict implements Predictor.
func (e *EWMA) Predict() float64 { return e.level }

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// Holt implements double exponential smoothing (level + trend), which tracks
// ramping workloads that an EWMA lags behind.
type Holt struct {
	Alpha, Beta  float64
	level, trend float64
	n            int
}

// NewHolt returns a Holt linear-trend predictor.
func NewHolt(alpha, beta float64) *Holt {
	return &Holt{Alpha: alpha, Beta: beta}
}

// Observe implements Predictor.
func (h *Holt) Observe(x float64) {
	switch h.n {
	case 0:
		h.level = x
	case 1:
		h.trend = x - h.level
		h.level = x
	default:
		prev := h.level
		h.level = h.Alpha*x + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prev) + (1-h.Beta)*h.trend
	}
	h.n++
}

// Predict implements Predictor.
func (h *Holt) Predict() float64 { return h.level + h.trend }

// PredictAhead forecasts k steps ahead.
func (h *Holt) PredictAhead(k int) float64 { return h.level + float64(k)*h.trend }

// Name implements Predictor.
func (h *Holt) Name() string { return "holt" }

// AR1 fits x[t+1] ≈ a·x[t] + b online by recursive least squares and
// predicts with the fitted line.
type AR1 struct {
	rls  *RLS
	last float64
	n    int
}

// NewAR1 returns an online AR(1) predictor.
func NewAR1() *AR1 { return &AR1{rls: NewRLS(2, 0.999)} }

// Observe implements Predictor.
func (a *AR1) Observe(x float64) {
	if a.n > 0 {
		a.rls.Observe([]float64{a.last, 1}, x)
	}
	a.last = x
	a.n++
}

// Predict implements Predictor.
func (a *AR1) Predict() float64 {
	if a.n < 2 {
		return a.last
	}
	return a.rls.Predict([]float64{a.last, 1})
}

// Name implements Predictor.
func (a *AR1) Name() string { return "ar1" }

// WindowMean predicts the mean of the last W observations. The window is a
// ring: once full, each observation overwrites the oldest in place, so the
// steady-state hot path allocates nothing (the former slide-by-reslicing
// implementation reallocated the window roughly once per observation).
type WindowMean struct {
	W    int
	hist []float64 // ring once len == W; hist[head] is then the oldest
	head int
}

// NewWindowMean returns a sliding-window-mean predictor.
func NewWindowMean(w int) *WindowMean {
	if w <= 0 {
		panic("learning: WindowMean requires w > 0")
	}
	return &WindowMean{W: w, hist: make([]float64, 0, w)}
}

// Observe implements Predictor.
func (m *WindowMean) Observe(x float64) {
	if len(m.hist) < m.W {
		m.hist = append(m.hist, x)
		return
	}
	m.hist[m.head] = x
	m.head = (m.head + 1) % m.W
}

// Predict implements Predictor. Summation runs oldest-first — the same
// order the pre-ring implementation used — because float addition is not
// associative and predictions feed byte-compared checkpoint state. The
// window is walked as its two contiguous segments, from the oldest value
// (hist[head], head staying 0 until the window fills) to the end, then the
// wrapped part.
func (m *WindowMean) Predict() float64 {
	n := len(m.hist)
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, x := range m.hist[m.head:] {
		s += x
	}
	for _, x := range m.hist[:m.head] {
		s += x
	}
	return s / float64(n)
}

// Name implements Predictor.
func (m *WindowMean) Name() string { return "window-mean" }

// RLS is exponentially forgetting recursive least squares for small feature
// vectors, implemented directly (matrix dimension is tiny, so the O(d²)
// update is fine).
type RLS struct {
	d      int
	lambda float64
	w      []float64
	p      [][]float64 // inverse covariance
	px, k  []float64   // Observe's scratch vectors, reused every update
}

// NewRLS returns an RLS estimator with d features and forgetting factor
// lambda in (0, 1].
func NewRLS(d int, lambda float64) *RLS {
	if lambda <= 0 || lambda > 1 {
		panic("learning: RLS lambda out of (0,1]")
	}
	p := make([][]float64, d)
	for i := range p {
		p[i] = make([]float64, d)
		p[i][i] = 1000 // large initial covariance = uninformative prior
	}
	return &RLS{d: d, lambda: lambda, w: make([]float64, d), p: p,
		px: make([]float64, d), k: make([]float64, d)}
}

// Predict returns wᵀx.
func (r *RLS) Predict(x []float64) float64 {
	s := 0.0
	for i, xi := range x {
		s += r.w[i] * xi
	}
	return s
}

// Weights returns a copy of the weight vector.
func (r *RLS) Weights() []float64 {
	w := make([]float64, r.d)
	copy(w, r.w)
	return w
}

// Observe performs one RLS update with features x and target y. The
// intermediate vectors live in the estimator (sized once at construction),
// so the per-update path allocates nothing.
func (r *RLS) Observe(x []float64, y float64) {
	if r.px == nil { // zero-value construction: size scratch lazily
		r.px, r.k = make([]float64, r.d), make([]float64, r.d)
	}
	// k = P x / (λ + xᵀ P x)
	px := r.px
	for i := 0; i < r.d; i++ {
		px[i] = 0
		for j := 0; j < r.d; j++ {
			px[i] += r.p[i][j] * x[j]
		}
	}
	den := r.lambda
	for i := 0; i < r.d; i++ {
		den += x[i] * px[i]
	}
	k := r.k
	for i := 0; i < r.d; i++ {
		k[i] = px[i] / den
	}
	err := y - r.Predict(x)
	for i := 0; i < r.d; i++ {
		r.w[i] += k[i] * err
	}
	// P = (P - k xᵀ P) / λ
	for i := 0; i < r.d; i++ {
		for j := 0; j < r.d; j++ {
			r.p[i][j] = (r.p[i][j] - k[i]*px[j]) / r.lambda
		}
	}
}

// MSETracker measures a predictor's running squared error; the meta level
// uses it to compare awareness strategies on live data.
type MSETracker struct {
	sum float64
	n   int
}

// Record adds one (predicted, actual) pair.
func (m *MSETracker) Record(predicted, actual float64) {
	d := predicted - actual
	m.sum += d * d
	m.n++
}

// MSE returns the mean squared error so far (0 when empty).
func (m *MSETracker) MSE() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// RMSE returns the root mean squared error.
func (m *MSETracker) RMSE() float64 { return math.Sqrt(m.MSE()) }

// N returns the number of recorded pairs.
func (m *MSETracker) N() int { return m.n }
