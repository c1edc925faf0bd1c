package core

import (
	"fmt"
	"sort"

	"sacs/internal/goals"
	"sacs/internal/knowledge"
)

// Reasoner turns self-knowledge into actions: the "reason" stage of the
// LRA-M loop. Implementations receive a Decision context through which all
// model consultations and candidate scorings flow, so that every decision is
// explainable after the fact.
type Reasoner interface {
	// Name identifies the reasoner.
	Name() string
	// Decide inspects the decision context and calls ctx.Choose for each
	// action to take (possibly none).
	Decide(ctx *Decision)
}

// ReasonerFunc adapts a function to the Reasoner interface.
type ReasonerFunc struct {
	ReasonerName string
	Fn           func(ctx *Decision)
}

// Name implements Reasoner.
func (r ReasonerFunc) Name() string { return r.ReasonerName }

// Decide implements Reasoner.
func (r ReasonerFunc) Decide(ctx *Decision) { r.Fn(ctx) }

// Config assembles an Agent. Zero-value fields get sensible defaults; only
// Name is mandatory.
type Config struct {
	Name string
	// Caps selects the self-awareness levels; default FullStack.
	Caps Capabilities
	// Store is the knowledge base; a fresh one is created when nil. A
	// store has one owner, so give each agent its own.
	Store *knowledge.Store
	// Goals is the (switchable) goal set; may be nil for goal-free agents.
	Goals *goals.Switcher
	// Sensors feed the awareness processes.
	Sensors []Sensor
	// Attention optionally limits sensing per step; nil senses everything.
	Attention *Attention
	// Reasoner decides actions; nil gives an inert (observe-only) agent.
	Reasoner Reasoner
	// Effectors execute actions, routed by Action.Name. Unrouted actions
	// are reported as errors in Step's return.
	Effectors []Effector
	// ExplainDepth sets how many recent decisions the Explainer keeps
	// (default 32; 0 uses the default, negative disables explanation).
	ExplainDepth int
	// ExtraProcesses are appended after the built-in per-level processes.
	ExtraProcesses []Process
}

// Agent is a self-aware entity: the executable form of the paper's
// framework. Create one with New, then call Step once per simulation tick.
type Agent struct {
	name      string
	caps      Capabilities
	store     *knowledge.Store
	goals     *goals.Switcher
	sensors   []Sensor
	attention *Attention
	reasoner  Reasoner
	effectors map[string]Effector
	explainer *Explainer
	meta      *MetaMonitor

	processes []Process
	active    []Process // capability-filtered processes, precomputed in New
	stimProc  *StimulusProcess
	interProc *InteractionProcess
	timeProc  *TimeProcess
	goalProc  *GoalProcess
	// hot is the per-step mutable state (step counter, process counters,
	// stimulus batch buffer). New points it at a private heap slot; an
	// Arena.Adopt re-points it (and the processes writing through it) at a
	// slot in a shard-contiguous block. Never nil after New.
	hot         *StepState
	lastMetrics map[string]float64
	decFree     []*Decision // recycled Decision contexts (see Step)
}

// New builds an agent from cfg.
func New(cfg Config) *Agent {
	if cfg.Name == "" {
		panic("core: agent requires a name")
	}
	caps := cfg.Caps
	if caps == 0 {
		caps = FullStack
	}
	store := cfg.Store
	if store == nil {
		store = knowledge.NewStore(0.3, 64)
	}
	a := &Agent{
		name:      cfg.Name,
		caps:      caps,
		store:     store,
		goals:     cfg.Goals,
		sensors:   cfg.Sensors,
		attention: cfg.Attention,
		reasoner:  cfg.Reasoner,
		hot:       &StepState{},
	}
	if len(cfg.Effectors) > 0 { // a nil map reads as an empty one
		a.effectors = make(map[string]Effector, len(cfg.Effectors))
		for _, e := range cfg.Effectors {
			a.effectors[e.Name()] = e
		}
	}
	if cfg.ExplainDepth >= 0 {
		depth := cfg.ExplainDepth
		if depth == 0 {
			depth = 32
		}
		a.explainer = NewExplainer(depth)
	}

	// Built-in processes, gated by capability level. The processes whose
	// per-tick counters live in the agent's hot step state share a.hot, so
	// an Arena.Adopt moves all of them with one rebind. Four is the number
	// of built-in levels that add a process.
	a.processes = make([]Process, 0, 4+len(cfg.ExtraProcesses))
	a.stimProc = &StimulusProcess{Store: store}
	a.processes = append(a.processes, a.stimProc)
	if caps.Has(LevelInteraction) {
		a.interProc = &InteractionProcess{Self: cfg.Name, Store: store, hot: a.hot}
		a.processes = append(a.processes, a.interProc)
	}
	if caps.Has(LevelTime) {
		a.timeProc = &TimeProcess{Store: store}
		a.processes = append(a.processes, a.timeProc)
	}
	if caps.Has(LevelGoal) && cfg.Goals != nil {
		a.goalProc = &GoalProcess{Store: store, Switcher: cfg.Goals, hot: a.hot}
		a.processes = append(a.processes, a.goalProc)
	}
	if caps.Has(LevelMeta) {
		a.meta = NewMetaMonitor(a)
	}
	a.processes = append(a.processes, cfg.ExtraProcesses...)
	// Capabilities are immutable after construction, so the per-level gate
	// is applied once here instead of per process per tick.
	a.active = make([]Process, 0, len(a.processes))
	for _, p := range a.processes {
		if caps.Has(p.Level()) {
			a.active = append(a.active, p)
		}
	}
	return a
}

// Name returns the agent's name.
func (a *Agent) Name() string { return a.name }

// Caps returns the agent's self-awareness capabilities.
func (a *Agent) Caps() Capabilities { return a.caps }

// Store returns the agent's knowledge base.
func (a *Agent) Store() *knowledge.Store { return a.store }

// Goals returns the agent's goal switcher (may be nil).
func (a *Agent) Goals() *goals.Switcher { return a.goals }

// Explainer returns the agent's explainer (nil when disabled).
func (a *Agent) Explainer() *Explainer { return a.explainer }

// Meta returns the agent's meta-monitor (nil below LevelMeta).
func (a *Agent) Meta() *MetaMonitor { return a.meta }

// TimeProcess exposes the built-in time-awareness process (nil below
// LevelTime); the meta level manipulates it.
func (a *Agent) TimeProcess() *TimeProcess { return a.timeProc }

// Steps returns how many Step calls have run.
func (a *Agent) Steps() int { return a.hot.Steps }

// AddSensor attaches a sensor at run time (systems are "continuously formed
// and reformed on the fly", §II).
func (a *Agent) AddSensor(s Sensor) { a.sensors = append(a.sensors, s) }

// Inject delivers externally produced stimuli (e.g. messages from peers in
// a collective) into the agent's awareness processes immediately.
func (a *Agent) Inject(now float64, batch []Stimulus) {
	for _, p := range a.active {
		p.Observe(now, batch)
	}
}

// Step runs one LRA-M cycle at virtual time now: sense (through attention),
// learn (processes update models), reason (goal-aware decision) and act
// (effectors). metrics is the substrate's current metric snapshot used for
// goal evaluation; it may be nil. The chosen actions are returned after
// being executed.
//
// Hot-path contract: the returned slice is backed by a pooled Decision and
// stays valid only until the agent's next Step; callers that retain actions
// across ticks must copy them (the population engine's EmitContext already
// documents the same rule).
//
//sacs:hotpath
func (a *Agent) Step(now float64, metrics map[string]float64) []Action {
	hot := a.hot
	hot.Steps++
	a.lastMetrics = metrics

	// Sense, optionally limited by attention. The batch buffer is owned by
	// the agent and reused every tick; sensors append to it in place, and
	// processes consume it synchronously and must not retain it.
	sensors := a.sensors
	if a.attention != nil {
		sensors = a.attention.Pick(now, a.sensors, a.store)
	}
	batch := hot.stimBuf[:0]
	for _, s := range sensors {
		batch = s.SenseInto(now, batch)
	}
	hot.stimBuf = batch

	// Learn: feed every capability-enabled process (precomputed in New).
	if a.goalProc != nil {
		a.goalProc.SetMetrics(metrics)
	}
	for _, p := range a.active {
		p.Observe(now, batch)
	}

	// Meta: observe own awareness quality, maybe adapt it.
	if a.meta != nil {
		a.meta.Observe(now)
	}

	// Reason.
	if a.reasoner == nil {
		return nil
	}
	d := a.takeDecision(now, metrics)
	a.reasoner.Decide(d)
	if a.explainer != nil {
		if evicted := a.explainer.Record(d); evicted != nil {
			a.decFree = append(a.decFree, evicted)
		}
	}

	// Act (self-expression).
	for _, act := range d.chosen {
		if eff, ok := a.effectors[act.Name]; ok {
			if err := eff.Act(act); err != nil {
				d.failures = append(d.failures, fmt.Sprintf("%s: %v", act, err)) //sacslint:allow hotalloc effector failure is off the steady-state path; the message is the explanation payload
			}
		} else if len(a.effectors) > 0 {
			d.failures = append(d.failures, fmt.Sprintf("%s: no effector", act)) //sacslint:allow hotalloc misrouted action is off the steady-state path; the message is the explanation payload
		}
	}
	if a.explainer == nil {
		// Not retained for explanation: the context goes straight back to
		// the pool (its chosen slice stays valid until the next Step).
		a.decFree = append(a.decFree, d)
	}
	return d.chosen
}

// takeDecision returns a cleared Decision context, recycled from the
// agent's pool when one is free. Decisions cycle agent-locally: fresh →
// explainer ring (when explanation is on) → pool on eviction → reuse, so a
// steady-state step heap-allocates no decision state at all.
func (a *Agent) takeDecision(now float64, metrics map[string]float64) *Decision {
	var d *Decision
	if n := len(a.decFree); n > 0 {
		d = a.decFree[n-1]
		a.decFree = a.decFree[:n-1]
		d.reset()
	} else {
		d = &Decision{}
	}
	d.Now, d.agent, d.Goal, d.Metrics = now, a, a.activeGoal(), metrics
	return d
}

func (a *Agent) activeGoal() *goals.Set {
	if a.goals == nil || !a.caps.Has(LevelGoal) {
		return nil
	}
	return a.goals.Active()
}

// Describe renders a one-paragraph self-description at virtual time now:
// name, the report's time context, capabilities, goal, model inventory
// size. A minimal form of self-reporting. now anchors the report — the
// same agent describes itself differently as time passes (steps fall
// behind the clock when the agent idles), which is what makes the
// self-report a statement about the present rather than a static label.
func (a *Agent) Describe(now float64) string {
	goal := "none"
	if g := a.activeGoal(); g != nil {
		goal = g.String()
	}
	return fmt.Sprintf("agent %s at t=%.4g: levels=%s goal=%s models=%d steps=%d",
		a.name, now, a.caps, goal, a.store.Len(), a.hot.Steps)
}

// ModelNames lists the agent's current self-model names, sorted.
func (a *Agent) ModelNames() []string {
	names := a.store.Names(Private, false)
	sort.Strings(names)
	return names
}
