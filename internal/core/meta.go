package core

import (
	"fmt"

	"sacs/internal/knowledge"
	"sacs/internal/learning"
)

// MetaMonitor realises meta-self-awareness for an Agent: it observes the
// quality of the agent's *own* awareness processes (currently the forecast
// error of the time-awareness process), detects when they have gone stale,
// and adapts them — switching the forecasting strategy from a pool. This is
// Morin's "awareness that one is self-aware" [42] made operational: the
// domain of this process's knowledge is the agent's other processes.
type MetaMonitor struct {
	agent    *Agent
	detector *learning.PageHinkley

	// Index into metaStrategies of the forecasting strategy installed in
	// the agent's time-awareness process.
	poolIdx int

	// Adaptations counts strategy switches performed.
	Adaptations int
	lastErr     float64

	// Interned store keys for the monitor's three models, resolved on the
	// first Observe (zero until then), so the per-step write path never
	// hashes a name and building an agent interns nothing.
	rmseKey, stratKey, adaptKey knowledge.Key
}

type namedPredictorFactory struct {
	name string
	fn   func() learning.Predictor
}

// metaStrategies is the pool of forecasting strategies a MetaMonitor
// rotates through. It is never modified, so every monitor shares it.
var metaStrategies = [...]namedPredictorFactory{
	{"ewma", func() learning.Predictor { return learning.NewEWMA(0.3) }},
	{"holt", func() learning.Predictor { return learning.NewHolt(0.4, 0.2) }},
	{"ar1", func() learning.Predictor { return learning.NewAR1() }},
	{"window-mean", func() learning.Predictor { return learning.NewWindowMean(16) }},
}

// NewMetaMonitor returns a monitor with the default strategy pool (EWMA,
// Holt, AR1, window-mean).
func NewMetaMonitor(a *Agent) *MetaMonitor {
	return &MetaMonitor{
		agent:    a,
		detector: learning.NewPageHinkley(0.005, 0.5),
	}
}

// ActiveStrategy names the forecasting strategy currently installed.
func (m *MetaMonitor) ActiveStrategy() string { return metaStrategies[m.poolIdx].name }

// Observe runs one meta step: read own forecast error, test for drift in
// it, and rotate the forecasting strategy when the current one degrades.
func (m *MetaMonitor) Observe(now float64) {
	tp := m.agent.TimeProcess()
	if tp == nil {
		return
	}
	err := tp.MeanForecastError()
	m.lastErr = err
	store := m.agent.Store()
	if m.rmseKey == 0 {
		m.rmseKey = store.Intern("meta/forecast-rmse", Private)
		m.stratKey = store.Intern("meta/strategy", Private)
		m.adaptKey = store.Intern("meta/adaptations", Private)
	}
	store.SetKey(m.rmseKey, err, now)
	store.SetKey(m.stratKey, float64(m.poolIdx), now)
	store.SetKey(m.adaptKey, float64(m.Adaptations), now)

	if m.detector.Observe(err) {
		// Our own awareness has degraded: switch strategy and relearn.
		m.poolIdx = (m.poolIdx + 1) % len(metaStrategies)
		tp.SwapPredictor(metaStrategies[m.poolIdx].fn)
		m.Adaptations++
	}
}

// Report summarises the meta level's view of the agent's awareness quality.
func (m *MetaMonitor) Report() string {
	return fmt.Sprintf("meta: strategy=%s forecast-rmse=%.4g adaptations=%d",
		m.ActiveStrategy(), m.lastErr, m.Adaptations)
}

// Portfolio is standalone meta-self-awareness over decision strategies: a
// learner-of-learners. Several Bandit strategies compete to make the same
// decisions; a sliding-window meta-bandit routes each decision to the
// strategy performing best recently, so the system as a whole adapts when
// the environment shifts regime. Used directly by experiment E6 and by
// substrates that expose discrete strategy choices.
type Portfolio struct {
	learners  []learning.Bandit
	meta      *learning.SlidingUCB
	detectors []*learning.PageHinkley // one per strategy: own-performance watch
	window    int

	// EpochLen is how many decisions the portfolio commits to a strategy
	// before the meta level reassesses (default 50). Committing in epochs
	// gives the meta level clean credit assignment instead of per-step
	// thrash.
	EpochLen int

	active   int
	lastArm  int
	epochSum float64
	epochN   int
	Switches int
	Resets   int
}

// NewPortfolio builds a portfolio over the given strategies. window controls
// how many epochs of per-strategy performance the meta level remembers.
func NewPortfolio(window int, learners ...learning.Bandit) *Portfolio {
	if len(learners) == 0 {
		panic("core: portfolio needs at least one learner")
	}
	arms := learners[0].Arms()
	for _, l := range learners[1:] {
		if l.Arms() != arms {
			panic("core: portfolio learners must share an arm set")
		}
	}
	meta := learning.NewSlidingUCB(len(learners), window)
	meta.C = 0.15 // rewards live in [0,1]; √2 over-explores at this scale
	dets := make([]*learning.PageHinkley, len(learners))
	for i := range dets {
		dets[i] = learning.NewPageHinkley(0.01, 0.5)
	}
	return &Portfolio{
		learners:  learners,
		meta:      meta,
		detectors: dets,
		window:    window,
		EpochLen:  50,
	}
}

// Active returns the index and name of the currently routing strategy.
func (p *Portfolio) Active() (int, string) {
	return p.active, p.learners[p.active].Name()
}

// Arms returns the shared arm count.
func (p *Portfolio) Arms() int { return p.learners[0].Arms() }

// Name implements learning.Bandit.
func (p *Portfolio) Name() string { return "meta-portfolio" }

// Select implements learning.Bandit: the committed strategy picks the arm.
func (p *Portfolio) Select() int {
	p.lastArm = p.learners[p.active].Select()
	return p.lastArm
}

// Update implements learning.Bandit: reward flows to the strategy that made
// the call; at each epoch boundary the epoch's mean reward updates the meta
// level's assessment of that strategy and the commitment is reconsidered. A
// drift alarm on the epoch-mean stream resets the meta window so stale
// reputations do not linger after a regime change.
func (p *Portfolio) Update(arm int, reward float64) {
	p.learners[p.active].Update(arm, reward)
	p.epochSum += reward
	p.epochN++
	if p.epochN < p.EpochLen {
		return
	}
	mean := p.epochSum / float64(p.epochN)
	p.epochSum, p.epochN = 0, 0
	p.meta.Update(p.active, mean)
	// Drift is judged per strategy, against that strategy's own history —
	// otherwise the meta level's own exploration looks like drift and
	// triggers reset loops.
	if p.detectors[p.active].Observe(mean) {
		p.meta = learning.NewSlidingUCB(len(p.learners), p.window)
		p.meta.C = 0.15
		p.Resets++
	}
	prev := p.active
	p.active = p.meta.Select()
	if p.active != prev {
		p.Switches++
	}
}
