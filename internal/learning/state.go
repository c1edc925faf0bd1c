package learning

import "fmt"

// Stateful is implemented by learners whose complete mutable state can be
// exported as a flat float64 vector and reinstalled later. It exists for
// internal/checkpoint: a time-awareness process or meta monitor restored
// from a snapshot repositions its predictors and detectors with SetState
// and continues byte-identically. Structural parameters (window sizes,
// smoothing factors) are design-time configuration and are NOT part of the
// vector — SetState must be called on a learner constructed with the same
// parameters as the exporter.
type Stateful interface {
	// State exports the learner's complete mutable state.
	State() []float64
	// SetState reinstalls a state previously returned by State on an
	// identically configured learner.
	SetState(v []float64) error
}

func wantLen(name string, v []float64, n int) error {
	if len(v) != n {
		return fmt.Errorf("learning: %s state has %d values, want %d", name, len(v), n)
	}
	return nil
}

// State implements Stateful.
func (e *EWMA) State() []float64 { return []float64{float64(e.n), e.level} }

// SetState implements Stateful.
func (e *EWMA) SetState(v []float64) error {
	if err := wantLen("ewma", v, 2); err != nil {
		return err
	}
	e.n, e.level = int(v[0]), v[1]
	return nil
}

// State implements Stateful.
func (h *Holt) State() []float64 { return []float64{float64(h.n), h.level, h.trend} }

// SetState implements Stateful.
func (h *Holt) SetState(v []float64) error {
	if err := wantLen("holt", v, 3); err != nil {
		return err
	}
	h.n, h.level, h.trend = int(v[0]), v[1], v[2]
	return nil
}

// State implements Stateful: the AR(1) state is its observation count, the
// last observation, and the flattened RLS weight vector and inverse
// covariance.
func (a *AR1) State() []float64 {
	v := []float64{float64(a.n), a.last}
	v = append(v, a.rls.w...)
	for _, row := range a.rls.p {
		v = append(v, row...)
	}
	return v
}

// SetState implements Stateful.
func (a *AR1) SetState(v []float64) error {
	d := a.rls.d
	if err := wantLen("ar1", v, 2+d+d*d); err != nil {
		return err
	}
	a.n, a.last = int(v[0]), v[1]
	copy(a.rls.w, v[2:2+d])
	for i := range a.rls.p {
		copy(a.rls.p[i], v[2+d+i*d:2+d+(i+1)*d])
	}
	return nil
}

// State implements Stateful: the retained window, oldest first (ring
// rotation is not preserved — every reader is rotation-invariant given the
// oldest-first order).
func (m *WindowMean) State() []float64 {
	out := make([]float64, 0, len(m.hist))
	return append(append(out, m.hist[m.head:]...), m.hist[:m.head]...)
}

// SetState implements Stateful.
func (m *WindowMean) SetState(v []float64) error {
	if len(v) > m.W {
		return fmt.Errorf("learning: window-mean state has %d values, window is %d", len(v), m.W)
	}
	m.hist = append(m.hist[:0], v...)
	m.head = 0
	return nil
}

// State implements Stateful.
func (p *PageHinkley) State() []float64 {
	return []float64{float64(p.n), p.mean, p.cumUp, p.minUp, p.cumDown, p.maxDown, float64(p.Detections)}
}

// SetState implements Stateful.
func (p *PageHinkley) SetState(v []float64) error {
	if err := wantLen("page-hinkley", v, 7); err != nil {
		return err
	}
	p.n, p.mean = int(v[0]), v[1]
	p.cumUp, p.minUp, p.cumDown, p.maxDown = v[2], v[3], v[4], v[5]
	p.Detections = int(v[6])
	return nil
}

// State implements Stateful.
func (m *MSETracker) State() []float64 { return []float64{m.sum, float64(m.n)} }

// SetState implements Stateful.
func (m *MSETracker) SetState(v []float64) error {
	if err := wantLen("mse-tracker", v, 2); err != nil {
		return err
	}
	m.sum, m.n = v[0], int(v[1])
	return nil
}
