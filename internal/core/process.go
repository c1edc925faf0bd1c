package core

import (
	"slices"
	"sort"

	"sacs/internal/goals"
	"sacs/internal/knowledge"
	"sacs/internal/learning"
)

// Process is one self-awareness process: it observes stimuli and maintains
// models at a particular level. An agent runs only the processes whose level
// its Capabilities include — this gating is what makes the E5 levels
// ablation meaningful.
//
// Hot-path contract: Observe receives the agent's reused stimulus batch; a
// process must consume it synchronously and never retain the slice (or
// pointers into it) across calls.
type Process interface {
	// Name identifies the process.
	Name() string
	// Level reports which self-awareness level the process realises.
	Level() Level
	// Observe folds a batch of stimuli into the process's models.
	Observe(now float64, batch []Stimulus)
}

// StimulusProcess realises stimulus-awareness: it records the latest value
// of every stimulus into the knowledge store under "stim/<name>". This is
// the minimal awareness every agent has. Per stimulus name, the store key
// is resolved once and cached, so the steady-state tick neither
// concatenates nor hashes the model name.
type StimulusProcess struct {
	Store *knowledge.Store

	keys map[string]knowledge.Key // stimulus name -> interned "stim/<name>"
	// Last-resolved cache: consecutive stimuli overwhelmingly repeat one
	// name (an agent's own sensors fire every tick, and peers gossip the
	// same series), and the strings share backing storage, so the equality
	// check is a pointer compare — no hash, no bucket probe.
	lastName string
	lastKey  knowledge.Key
}

// Name implements Process.
func (p *StimulusProcess) Name() string { return "stimulus-awareness" }

// Level implements Process.
func (p *StimulusProcess) Level() Level { return LevelStimulus }

// Observe implements Process.
func (p *StimulusProcess) Observe(now float64, batch []Stimulus) {
	for i := range batch {
		s := &batch[i]
		k := p.lastKey
		if k == 0 || s.Name != p.lastName {
			var ok bool
			k, ok = p.keys[s.Name]
			if !ok {
				k = p.Store.Intern("stim/"+s.Name, s.Scope)
				if p.keys == nil {
					p.keys = make(map[string]knowledge.Key)
				}
				p.keys[s.Name] = k
			}
			p.lastName, p.lastKey = s.Name, k
		}
		p.Store.ObserveKey(k, s.Value, now)
	}
}

// InteractionProcess realises interaction-awareness: it separates stimuli
// originating from peers (Source set and different from Self) and models
// per-peer behaviour under "peer/<source>/<name>", plus an interaction
// count under "interactions". The store's symbol table is the only index
// of the peer models: a (peer, stimulus) pair is spelled into a reused
// buffer and looked up there, which allocates only for a new model.
type InteractionProcess struct {
	Self  string
	Store *knowledge.Store

	hot      *StepState    // running count lives in the agent's hot step state
	countKey knowledge.Key // interned "interactions"; zero until first use
	name     []byte        // reused "peer/<source>/<name>" spelling
	// Last-resolved cache: ring-style gossip delivers a message from the
	// same peer every tick, with both strings sharing backing storage, so
	// the repeat case is two pointer compares instead of a lookup.
	lastSource, lastName string
	lastKey              knowledge.Key
}

// Name implements Process.
func (p *InteractionProcess) Name() string { return "interaction-awareness" }

// Level implements Process.
func (p *InteractionProcess) Level() Level { return LevelInteraction }

// Observe implements Process.
func (p *InteractionProcess) Observe(now float64, batch []Stimulus) {
	hot := p.hot
	for i := range batch {
		s := &batch[i]
		if s.Source == "" || s.Source == p.Self {
			continue
		}
		hot.Interactions++
		k := p.lastKey
		if k == 0 || s.Source != p.lastSource || s.Name != p.lastName {
			p.name = append(append(append(append(p.name[:0], "peer/"...), s.Source...), '/'), s.Name...)
			k = p.Store.InternBytes(p.name, knowledge.Public)
			p.lastSource, p.lastName, p.lastKey = s.Source, s.Name, k
		}
		p.Store.ObserveKey(k, s.Value, now)
	}
	if p.countKey == 0 {
		p.countKey = p.Store.Intern("interactions", knowledge.Private)
	}
	p.Store.SetKey(p.countKey, hot.Interactions, now)
}

// timeModel is the per-stimulus state of time-awareness: the forecaster,
// its out-of-sample error tracker, and the interned store keys the hot loop
// writes through. stimKey stays zero until the "stim/<name>" model exists
// (it is owned by stimulus-awareness and may be absent in ablated agents).
// pred == nil marks a model discarded by Reset: the table entry, its
// interned keys and its slot in the sorted name index are kept so that
// re-learning after a strategy swap rebuilds none of them.
type timeModel struct {
	pred     learning.Predictor
	errs     learning.MSETracker
	predKey  knowledge.Key // "pred/<name>"
	trendKey knowledge.Key // "trend/<name>"
	stimKey  knowledge.Key // "stim/<name>", resolved lazily

	// The last slope read from the stimulus model, and which entry at how
	// many updates it was read from: the stimuli of one batch that share a
	// name all read the same unchanged history, so its regression runs once.
	trendOf *knowledge.Entry
	trendAt int
	trend   float64
	trendOK bool
}

// TimeProcess realises time-awareness: for every stimulus name it maintains
// a one-step-ahead prediction under "pred/<name>" and a recent trend under
// "trend/<name>". The predictor factory is pluggable so the meta level can
// swap forecasting strategies at run time. All per-model store keys are
// resolved once, when the model is first seen, and reused every tick — and
// across Reset/SwapPredictor, which discard only the forecasters.
type TimeProcess struct {
	Store      *knowledge.Store
	NewPredict func() learning.Predictor

	models map[string]*timeModel
	names  []string     // sorted keys of models, maintained on insert
	byName []*timeModel // models[names[i]] at i, so per-step readers skip the map
	live   int          // models with a current predictor (pred != nil)
}

// Name implements Process.
func (p *TimeProcess) Name() string { return "time-awareness" }

// Level implements Process.
func (p *TimeProcess) Level() Level { return LevelTime }

// Observe implements Process.
func (p *TimeProcess) Observe(now float64, batch []Stimulus) {
	if p.models == nil {
		p.models = make(map[string]*timeModel)
	}
	if p.NewPredict == nil {
		p.NewPredict = func() learning.Predictor { return learning.NewEWMA(0.3) }
	}
	for i := range batch {
		s := &batch[i]
		m, ok := p.models[s.Name]
		if !ok {
			m = &timeModel{
				predKey:  p.Store.Intern("pred/"+s.Name, s.Scope),
				trendKey: p.Store.Intern("trend/"+s.Name, s.Scope),
			}
			p.models[s.Name] = m
			p.insertName(s.Name, m)
		}
		if m.pred == nil {
			// First observation, or first after a Reset: a fresh forecaster
			// and error tracker, exactly as if the model were new.
			m.pred = p.NewPredict()
			m.errs = learning.MSETracker{}
			p.live++
		} else {
			// Score yesterday's forecast against today's truth before
			// updating: honest out-of-sample error for the meta level.
			m.errs.Record(m.pred.Predict(), s.Value)
		}
		m.pred.Observe(s.Value)
		p.Store.SetKey(m.predKey, m.pred.Predict(), now)
		// One model consultation per stimulus per tick, exactly like the
		// string path: LookupKey while the stimulus model is still absent,
		// GetKey once its key is known.
		var e *knowledge.Entry
		if m.stimKey == 0 {
			m.stimKey, e = p.Store.LookupKey("stim/" + s.Name)
		} else {
			e = p.Store.GetKey(m.stimKey)
		}
		if e != nil {
			if n := e.Updates(); e != m.trendOf || n != m.trendAt {
				m.trend, m.trendOK = e.Trend()
				m.trendOf, m.trendAt = e, n
			}
			if m.trendOK {
				p.Store.SetKey(m.trendKey, m.trend, now)
			}
		}
	}
}

// ForecastError returns the running RMSE of the process's forecasts for the
// named stimulus (0 if unknown or discarded by Reset). The meta level reads
// this.
func (p *TimeProcess) ForecastError(name string) float64 {
	if m, ok := p.models[name]; ok && m.pred != nil {
		return m.errs.RMSE()
	}
	return 0
}

// insertName records a newly predicted stimulus and its model in the
// process's sorted name index, which exists so per-step readers iterate in
// a fixed order without allocating or hashing.
func (p *TimeProcess) insertName(name string, m *timeModel) {
	i := sort.SearchStrings(p.names, name)
	p.names = slices.Insert(p.names, i, name)
	p.byName = slices.Insert(p.byName, i, m)
}

// MeanForecastError averages RMSE over all predicted stimuli. Summation
// runs in sorted name order: float addition is not associative, and the
// meta level writes this value into the knowledge store once per step, so
// map-iteration order must not leak into checkpointed state (and the hot
// path must not allocate — hence the maintained name index).
func (p *TimeProcess) MeanForecastError() float64 {
	if p.live == 0 {
		return 0
	}
	s := 0.0
	for _, m := range p.byName {
		if m.pred != nil {
			s += m.errs.RMSE()
		}
	}
	return s / float64(p.live)
}

// Reset discards all predictors, forcing re-learning; the meta level calls
// this when drift is detected. The model table, its interned store keys and
// the sorted name index survive: only the forecasters and their error
// trackers are dropped, so re-learning allocates nothing but the new
// predictors themselves.
func (p *TimeProcess) Reset() {
	for _, m := range p.models {
		m.pred = nil
	}
	p.live = 0
}

// SwapPredictor replaces the predictor factory and resets state.
func (p *TimeProcess) SwapPredictor(f func() learning.Predictor) {
	p.NewPredict = f
	p.Reset()
}

// GoalProcess realises goal-awareness: at every step it evaluates the
// current metric snapshot against the active goal set, recording
// "goal/utility", "goal/violations" and the count of run-time goal switches
// it has noticed ("goal/switches"). Metrics are supplied by the agent from
// its substrate via SetMetrics before Observe runs.
type GoalProcess struct {
	Store    *knowledge.Store
	Switcher *goals.Switcher

	hot     *StepState // noticed-switch count lives in the agent's hot step state
	metrics map[string]float64
	scratch map[string]float64 // reused fallback metric map (metrics == nil)

	utilKey, violKey, switchKey knowledge.Key // interned on first Observe
}

// SetMetrics provides the substrate's current metric snapshot for the next
// Observe call.
func (p *GoalProcess) SetMetrics(m map[string]float64) { p.metrics = m }

// Name implements Process.
func (p *GoalProcess) Name() string { return "goal-awareness" }

// Level implements Process.
func (p *GoalProcess) Level() Level { return LevelGoal }

// Observe implements Process.
func (p *GoalProcess) Observe(now float64, batch []Stimulus) {
	if p.Switcher == nil {
		return
	}
	if p.utilKey == 0 {
		p.utilKey = p.Store.Intern("goal/utility", knowledge.Private)
		p.violKey = p.Store.Intern("goal/violations", knowledge.Private)
		p.switchKey = p.Store.Intern("goal/switches", knowledge.Private)
	}
	active, changed := p.Switcher.Tick(now)
	if changed {
		p.hot.GoalSwitches++
	}
	m := p.metrics
	if m == nil {
		// Fall back to raw stimulus values so goal evaluation degrades
		// gracefully when the substrate provides no explicit metrics. The
		// scratch map is reused across ticks.
		if p.scratch == nil {
			p.scratch = make(map[string]float64, len(batch))
		} else {
			clear(p.scratch)
		}
		for i := range batch {
			p.scratch[batch[i].Name] = batch[i].Value
		}
		m = p.scratch
	}
	p.Store.SetKey(p.utilKey, active.Utility(m), now)
	p.Store.SetKey(p.violKey, float64(active.ViolationCount(m)), now)
	p.Store.SetKey(p.switchKey, p.hot.GoalSwitches, now)
}
