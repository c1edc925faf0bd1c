package population

import (
	"strconv"
	"time"

	"sacs/internal/obs"
)

// Metrics is the population engine's observability plane: per-tick phase
// timing counters, per-shard step-duration and mailbox-depth histograms,
// and the tick counter, all labelled with the population's name. Attach one
// via Config.Metrics (nil disables instrumentation entirely — the engine
// then takes no timestamps at all).
//
// Metrics are observation-only: no metric value is ever an input to
// stepping, routing or snapshots, so an instrumented run is byte-identical
// to an uninstrumented one. They are also deliberately excluded from
// Snapshot — wall-clock timings are a property of the host, not the
// simulation, and folding them into checkpoint bytes would break the
// equal-state ⇒ equal-bytes contract.
//
// The tick's wall time decomposes at the engine's natural seams:
//
//	step    — Σ per-shard busy time / pool workers: the compute the tick
//	          actually needed, normalised to the concurrency available
//	barrier — transport Step wall time minus step: time shards spent waiting
//	          on the slowest sibling (plus fan-out overhead). This is the
//	          number that explains a flat workers=1→4 scaling curve.
//	route   — the engine's single-threaded barrier work: merging exchanges,
//	          routing messages into next-tick mailboxes, recycling
//	snapshot — export time, counted per call, not per tick: Engine.Snapshot
//	          (the transport's Export plus the copy of the pending mail),
//	          or Engine.StreamSnapshot over the in-process transport, where
//	          export and the sink's writes interleave and the counter
//	          times the whole stream, the sink's Head and Run calls
//	          included. StreamSnapshot over any other transport counts its
//	          Snapshot call alone.
type Metrics struct {
	reg *obs.Registry // retained for the lazily sized per-shard gauges
	pop string

	ticks    *obs.Counter
	lastTick *obs.Gauge
	steals   *obs.Counter // shards claimed off their planned executor (see LocalTransport.Step)

	phaseStep    *obs.Counter // ns, rendered as seconds
	phaseBarrier *obs.Counter
	phaseRoute   *obs.Counter
	phaseSnap    *obs.Counter

	shardStep *obs.Histogram // per-shard busy ns per tick
	mailDepth *obs.Histogram // stimuli delivered into one shard per tick

	// shardCost gauges (nanos, rendered seconds) are registered on the
	// first tick, when the transport's shard count is known — Metrics is
	// built from a name alone, before any Config exists.
	shardCost []*obs.Gauge
}

// NewMetrics registers the population metric families on reg, labelled
// {pop="<pop>"}, and returns the instrument set. Registration is idempotent
// (see obs.Registry), so re-hosting the same population re-attaches to the
// same series. A nil registry returns nil, which Config.Metrics treats as
// "not instrumented".
func NewMetrics(reg *obs.Registry, pop string) *Metrics {
	if reg == nil {
		return nil
	}
	p := obs.L("pop", pop)
	m := &Metrics{
		reg: reg,
		pop: pop,
		ticks: reg.Counter("sacs_population_ticks_total",
			"ticks advanced", p),
		lastTick: reg.Gauge("sacs_population_tick",
			"current tick (next to execute)", p),
		steals: reg.Counter("sacs_population_sched_steal_total",
			"shards executed off their planned executor by intra-tick work stealing", p),
		shardStep: reg.Histogram("sacs_population_shard_step_seconds",
			"busy time of one shard's step, per shard per tick",
			obs.Seconds, obs.DurationBounds(), p),
		mailDepth: reg.Histogram("sacs_population_shard_mailbox_depth",
			"stimuli delivered into one shard's agents, per shard per tick",
			1, obs.SizeBounds(), p),
	}
	phase := func(name string) *obs.Counter {
		return reg.ScaledCounter("sacs_population_phase_seconds_total",
			"cumulative tick wall time by phase (step/barrier/route/snapshot)",
			obs.Seconds, p, obs.L("phase", name))
	}
	m.phaseStep = phase("step")
	m.phaseBarrier = phase("barrier")
	m.phaseRoute = phase("route")
	m.phaseSnap = phase("snapshot")
	return m
}

// observeSnapshot adds the time since start to the snapshot phase.
func (m *Metrics) observeSnapshot(start time.Time) {
	m.phaseSnap.Add(time.Since(start).Nanoseconds()) //sacslint:allow detsource observation-only: snapshot-phase timing, never read by agent logic
}

// observeCosts publishes the per-shard estimates of the cost model that
// dispatched them (LocalTransport.Step), registering the gauge family
// {pop,shard} on first use (idempotently, like every obs registration —
// re-hosting re-attaches to the same series).
func (m *Metrics) observeCosts(c *CostModel) {
	if m.shardCost == nil {
		m.shardCost = make([]*obs.Gauge, c.Shards())
		p := obs.L("pop", m.pop)
		for s := range m.shardCost {
			m.shardCost[s] = m.reg.ScaledGauge("sacs_population_shard_cost_seconds",
				"per-shard step-cost estimate driving the dispatch order (EWMA of step time)",
				obs.Seconds, p, obs.L("shard", strconv.Itoa(s)))
		}
	}
	for s, g := range m.shardCost {
		g.Set(int64(c.Estimate(s)))
	}
}
