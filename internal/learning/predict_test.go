package learning

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEWMAConstantConvergence(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Observe(7)
	}
	if math.Abs(e.Predict()-7) > 1e-9 {
		t.Fatalf("EWMA on constant = %v", e.Predict())
	}
}

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.1)
	e.Observe(42)
	if e.Predict() != 42 {
		t.Fatalf("first observation should seed level, got %v", e.Predict())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EWMA alpha 0 did not panic")
		}
	}()
	NewEWMA(0)
}

func TestHoltTracksLinearTrend(t *testing.T) {
	h := NewHolt(0.5, 0.3)
	for i := 0; i < 200; i++ {
		h.Observe(3 + 2*float64(i))
	}
	next := 3 + 2*200.0
	if math.Abs(h.Predict()-next) > 1 {
		t.Fatalf("Holt one-ahead on line = %v, want ≈ %v", h.Predict(), next)
	}
	if math.Abs(h.PredictAhead(5)-(3+2*204.0)) > 1.5 {
		t.Fatalf("Holt 5-ahead = %v, want ≈ %v", h.PredictAhead(5), 3+2*204.0)
	}
}

func TestAR1FitsARProcess(t *testing.T) {
	a := NewAR1()
	x := 10.0
	for i := 0; i < 500; i++ {
		a.Observe(x)
		x = 0.8*x + 2 // deterministic AR(1): fixed point 10
	}
	// Prediction of the next value from the last observed.
	pred := a.Predict()
	want := 0.8*x + 2
	_ = want
	if math.Abs(pred-10) > 0.5 {
		t.Fatalf("AR1 prediction = %v, want ≈ 10 (fixed point)", pred)
	}
}

func TestWindowMean(t *testing.T) {
	m := NewWindowMean(3)
	if m.Predict() != 0 {
		t.Fatal("empty window mean should be 0")
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Observe(x)
	}
	if m.Predict() != 4 { // mean of {3,4,5}
		t.Fatalf("window mean = %v, want 4", m.Predict())
	}
}

func TestWindowMeanBadWPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WindowMean(0) did not panic")
		}
	}()
	NewWindowMean(0)
}

func TestRLSRecoversLinearModel(t *testing.T) {
	rls := NewRLS(3, 1.0)
	rng := rand.New(rand.NewSource(1))
	trueW := []float64{2, -1, 0.5}
	for i := 0; i < 500; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), 1}
		y := trueW[0]*x[0] + trueW[1]*x[1] + trueW[2]*x[2]
		rls.Observe(x, y)
	}
	w := rls.Weights()
	for i := range trueW {
		if math.Abs(w[i]-trueW[i]) > 0.01 {
			t.Fatalf("RLS weights = %v, want %v", w, trueW)
		}
	}
}

func TestRLSPredictionErrorShrinksProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rls := NewRLS(2, 1.0)
		a, b := rng.NormFloat64(), rng.NormFloat64()
		var early, late float64
		for i := 0; i < 200; i++ {
			x := []float64{rng.NormFloat64(), 1}
			y := a*x[0] + b
			err := math.Abs(y - rls.Predict(x))
			if i < 20 {
				early += err
			}
			if i >= 180 {
				late += err
			}
			rls.Observe(x, y)
		}
		return late <= early+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMSETracker(t *testing.T) {
	var m MSETracker
	if m.MSE() != 0 || m.RMSE() != 0 {
		t.Fatal("empty tracker should be 0")
	}
	m.Record(1, 3) // err 2 → 4
	m.Record(5, 5) // err 0
	if math.Abs(m.MSE()-2) > 1e-12 || m.N() != 2 {
		t.Fatalf("MSE = %v, n = %d", m.MSE(), m.N())
	}
	if math.Abs(m.RMSE()-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("RMSE = %v", m.RMSE())
	}
}

func TestPredictorNames(t *testing.T) {
	preds := map[string]Predictor{
		"ewma":        NewEWMA(0.5),
		"holt":        NewHolt(0.5, 0.5),
		"ar1":         NewAR1(),
		"window-mean": NewWindowMean(4),
	}
	for want, p := range preds {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

// moduloMean is WindowMean.Predict as a walk wrapping its index with a
// modulo per value: the reference the two-segment walk must match bit for
// bit.
func moduloMean(m *WindowMean) float64 {
	n := len(m.hist)
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += m.hist[(m.head+i)%n]
	}
	return s / float64(n)
}

// TestWindowMeanMatchesModuloWalk: on growing, full, wrapped and restored
// windows (SetState of every length, then more observations), Predict gives
// exactly the bits of the per-value modulo walk, and State lists the same
// values in the same order.
func TestWindowMeanMatchesModuloWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(m *WindowMean) {
		t.Helper()
		if got, want := m.Predict(), moduloMean(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("W=%d len %d head %d: Predict %v, modulo walk %v", m.W, len(m.hist), m.head, got, want)
		}
		n := len(m.hist)
		for i, v := range m.State() {
			if math.Float64bits(v) != math.Float64bits(m.hist[(m.head+i)%n]) {
				t.Fatalf("W=%d head %d: State()[%d] = %v, want %v", m.W, m.head, i, v, m.hist[(m.head+i)%n])
			}
		}
	}
	for _, w := range []int{1, 2, 5, 16} {
		m := NewWindowMean(w)
		check(m)
		for k := 0; k < 3*w+2; k++ {
			m.Observe(rng.NormFloat64() * 1e6)
			check(m)
		}
		for n := 0; n <= w; n++ {
			state := make([]float64, n)
			for i := range state {
				state[i] = rng.NormFloat64() * 1e6
			}
			r := NewWindowMean(w)
			if err := r.SetState(state); err != nil {
				t.Fatal(err)
			}
			check(r)
			for k := 0; k < 2*w+1; k++ {
				r.Observe(rng.NormFloat64() * 1e6)
				check(r)
			}
		}
	}
}
