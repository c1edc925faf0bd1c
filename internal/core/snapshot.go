package core

import (
	"fmt"

	"sacs/internal/codec"
	"sacs/internal/knowledge"
	"sacs/internal/learning"
)

// This file implements agent checkpointing: AppendState writes every piece
// of an Agent's mutable run-time state that influences future behaviour,
// and RestoreState reads it back onto a freshly constructed agent, so that
// resume(snapshot(T)) continues byte-identically (the contract documented
// in DESIGN.md).
//
// What is deliberately NOT captured:
//
//   - the Explainer's decision ring: Decision records hold live pointers
//     and closures and never feed back into behaviour — a resumed agent
//     explains only post-resume decisions;
//   - sensor/reasoner/effector internals: those are caller code. The
//     determinism contract therefore asks callers to keep closure state in
//     the knowledge store (or derive it from the agent's RNG stream), both
//     of which ARE captured.

// The fewest bytes each element can be spelled in, for
// codec.Decoder.Count: a predictor (two empty strings, two empty lists)
// and a stimulus (two empty strings, a scope, two floats).
const (
	minPredictorSize = 4
	MinStimulusSize  = 19
)

// AppendStimulus writes one stimulus.
func AppendStimulus(e *codec.Encoder, s Stimulus) {
	e.Str(s.Name)
	e.Str(s.Source)
	e.Int(int(s.Scope))
	e.F64(s.Value)
	e.F64(s.Time)
}

// DecodeStimulus reads one stimulus, taking its name and source through
// names: where a stream of stimuli repeats a few spellings, each is then
// allocated once per Interner, not once per stimulus. A nil names
// allocates both strings. A scope a store cannot keep fails d with
// knowledge.ErrScope.
func DecodeStimulus(d *codec.Decoder, names *codec.Interner) Stimulus {
	s := Stimulus{
		Name:   d.StrIn(names),
		Source: d.StrIn(names),
		Scope:  knowledge.Scope(d.Int()),
	}
	if !s.Scope.Storable() {
		d.Fail("%w: stimulus scope %d", knowledge.ErrScope, s.Scope)
	}
	s.Value, s.Time = d.F64(), d.F64()
	return s
}

// AppendState writes the agent's mutable state to e. It fails when the
// agent's time-awareness process carries a predictor that does not
// implement learning.Stateful (a custom strategy the checkpoint layer
// cannot serialise); e then holds a partial state to be discarded.
func (a *Agent) AppendState(e *codec.Encoder) error {
	e.Str(a.name)
	e.Int(a.hot.Steps)
	a.store.AppendState(e)
	e.Bool(a.goals != nil)
	if a.goals != nil {
		a.goals.AppendState(e)
	}
	e.F64(a.hot.GoalSwitches) // zero unless the goal process counts
	e.F64(a.hot.Interactions) // zero unless the interaction process counts
	tp := a.timeProc
	e.Bool(tp != nil && tp.live > 0)
	if tp != nil && tp.live > 0 {
		e.Uvarint(uint64(tp.live))
		for i, n := range tp.names {
			m := tp.byName[i]
			if m.pred == nil { // Reset-discarded models carry no state
				continue
			}
			sf, ok := m.pred.(learning.Stateful)
			if !ok {
				return fmt.Errorf(
					"core: agent %s predictor %q (%s) does not support checkpointing", a.name, n, m.pred.Name())
			}
			e.Str(n)
			e.Str(m.pred.Name())
			e.F64s(sf.State())
			e.F64s(m.errs.State())
		}
	}
	e.Bool(a.meta != nil)
	if a.meta != nil {
		e.Int(a.meta.poolIdx)
		e.Int(a.meta.Adaptations)
		e.F64(a.meta.lastErr)
		e.F64s(a.meta.detector.State())
	}
	return nil
}

// skipPredictors steps d over the time-awareness models' states, which
// RestoreState reads only once the meta state after them is known.
func skipPredictors(d *codec.Decoder) {
	n := d.Count(minPredictorSize)
	for i := 0; i < n && d.Err() == nil; i++ {
		d.StrBytes()
		d.StrBytes()
		d.SkipF64s()
		d.SkipF64s()
	}
}

// RestoreState reads a state AppendState wrote back onto the agent. The
// agent must have been constructed exactly as the writer was (same Config,
// same goal schedule, same capability set); mismatches are reported as
// errors, as are bytes that do not parse.
func (a *Agent) RestoreState(d *codec.Decoder) error {
	if name := d.StrBytes(); string(name) != a.name {
		return fmt.Errorf("core: state for agent %q applied to agent %q", name, a.name)
	}
	a.hot.Steps = d.Int()
	if err := a.store.RestoreState(d); err != nil {
		return fmt.Errorf("agent %s: %w", a.name, err)
	}
	if d.Bool() {
		if a.goals == nil {
			return fmt.Errorf("core: agent %s state has goal switcher state but agent has no switcher", a.name)
		}
		if err := a.goals.RestoreState(d); err != nil {
			return fmt.Errorf("agent %s: %w", a.name, err)
		}
	}
	a.hot.GoalSwitches = d.F64()
	a.hot.Interactions = d.F64()
	// Meta before time: the monitor's pool index determines which predictor
	// factory the time process must rebuild forecasters with, and it is
	// written after the predictors. preds keeps their position.
	hasTime := d.Bool()
	preds := *d
	if hasTime {
		skipPredictors(d)
	}
	if d.Bool() {
		if a.meta == nil {
			return fmt.Errorf("core: agent %s state has meta state but agent lacks the meta level", a.name)
		}
		idx := d.Int()
		if idx < 0 || idx >= len(metaStrategies) {
			return fmt.Errorf("core: agent %s meta pool index %d out of range", a.name, idx)
		}
		a.meta.poolIdx = idx
		a.meta.Adaptations = d.Int()
		a.meta.lastErr = d.F64()
		if err := a.meta.detector.SetState(d.F64s()); err != nil {
			return fmt.Errorf("agent %s: %w", a.name, err)
		}
		if a.timeProc != nil {
			a.timeProc.NewPredict = metaStrategies[idx].fn
		}
	}
	if hasTime {
		if err := a.restorePredictors(&preds); err != nil {
			return err
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("agent %s: %w", a.name, err)
	}
	return nil
}

// restorePredictors rebuilds the time-awareness models from their state:
// one fresh forecaster per stimulus from the current factory, which must
// be the strategy the writer used.
func (a *Agent) restorePredictors(d *codec.Decoder) error {
	tp := a.timeProc
	if tp == nil {
		return fmt.Errorf("core: agent %s state has time state but agent lacks the time level", a.name)
	}
	factory := tp.NewPredict
	if factory == nil {
		factory = func() learning.Predictor { return learning.NewEWMA(0.3) }
		tp.NewPredict = factory
	}
	n := d.Count(minPredictorSize)
	tp.models = make(map[string]*timeModel, n)
	tp.names, tp.byName = nil, nil
	tp.live = 0
	for i := 0; i < n; i++ {
		stim := d.Str()
		kind := d.StrBytes()
		pr := factory()
		if pr.Name() != string(kind) {
			return fmt.Errorf("core: agent %s predictor for %q is %q, state was exported from %q",
				a.name, stim, pr.Name(), kind)
		}
		sf, ok := pr.(learning.Stateful)
		if !ok {
			return fmt.Errorf("core: agent %s predictor %q (%s) does not support checkpointing",
				a.name, stim, pr.Name())
		}
		if err := sf.SetState(d.F64s()); err != nil {
			return fmt.Errorf("agent %s predictor %q: %w", a.name, stim, err)
		}
		if _, dup := tp.models[stim]; dup {
			return fmt.Errorf("core: agent %s has duplicate predictor state for %q", a.name, stim)
		}
		// Intern binds against the just-restored entries, whose scope
		// wins over the argument (the Private here is only a fallback
		// for the never-written case).
		m := &timeModel{
			pred:     pr,
			predKey:  a.store.Intern("pred/"+stim, knowledge.Private),
			trendKey: a.store.Intern("trend/"+stim, knowledge.Private),
		}
		if err := m.errs.SetState(d.F64s()); err != nil {
			return fmt.Errorf("agent %s predictor %q: %w", a.name, stim, err)
		}
		tp.models[stim] = m
		tp.insertName(stim, m)
		tp.live++
	}
	return nil
}
