package population

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"sacs/internal/core"
	"sacs/internal/runner"
	"sacs/internal/stats"
)

// DefaultShards is the shard count used when Config.Shards is zero. It is a
// fixed constant rather than a function of the pool's worker count because
// the shard count is part of the deterministic contract: results may differ
// between shard counts, never between worker counts.
const DefaultShards = 32

// EmitContext is handed to Config.Emit after each agent steps; Send routes
// stimuli to other agents for delivery at the next tick. The context (and
// the slice behind Actions) is reused between agents of one shard and must
// not be retained.
type EmitContext struct {
	Tick    int
	Now     float64
	ID      int           // the agent that just stepped
	Agent   *core.Agent   // that agent
	Actions []core.Action // the actions its reasoner chose this tick
	Rng     *rand.Rand    // the owning shard's RNG stream

	agents int
	out    *ShardExchange
}

// Send queues a stimulus for agent `to`, to be injected before that agent's
// step on the next tick. Sending to an out-of-range agent panics: it is
// always a routing bug in the caller's Emit function, and the runner pool's
// per-job panic recovery turns it into a diagnosable error.
//
//sacs:hotpath
func (c *EmitContext) Send(to int, s core.Stimulus) {
	if to < 0 || to >= c.agents {
		panic(fmt.Sprintf("population: agent %d sent to out-of-range agent %d (population %d)",
			c.ID, to, c.agents))
	}
	c.out.Msgs = append(c.out.Msgs, Routed{To: to, Stim: s})
}

// Config assembles an Engine. New and Agents are required.
type Config struct {
	// Name labels the engine's runner jobs (default "population").
	Name string
	// Agents is the population size.
	Agents int
	// Shards is how many partitions to step as independent jobs per tick
	// (default DefaultShards, clamped to Agents). Fixing the shard count
	// fixes the simulation: the deterministic contract is per shard count,
	// across any worker count.
	Shards int
	// Seed derives every shard's RNG stream and every agent's construction
	// RNG.
	Seed int64
	// Pool steps the shards concurrently; nil steps them inline on the
	// calling goroutine. The results are identical either way.
	Pool *runner.Pool
	// New builds agent id; rng is that agent's own deterministic stream
	// (derived from Seed and id, independent of sharding), which the
	// factory may capture for use inside sensors or reasoners. New is
	// called concurrently for agents of different shards (one pool job
	// per shard), and in id order within a shard. Agents in different
	// shards are built and stepped concurrently, so they must not share
	// mutable state — in particular, never share one knowledge.Store or
	// goals.Switcher across agents: each has one owner, and construction
	// panics when two agents share one.
	New func(id int, rng *rand.Rand) *core.Agent
	// Emit, when non-nil, runs after each agent's step to publish stimuli
	// to other agents via EmitContext.Send.
	Emit func(ctx *EmitContext)
	// Observe, when non-nil, extracts one scalar per agent per tick; the
	// engine aggregates it across the population (merged in shard index
	// order, so the moments are deterministic too).
	Observe func(id int, a *core.Agent) float64
	// Metrics, when non-nil, attaches the engine's observability plane
	// (see NewMetrics). Observation-only: stepping and snapshots are
	// byte-identical with or without it, and it is never serialised.
	Metrics *Metrics
}

// Normalized returns the config with name, shard-count and pool defaults
// applied — the exact shape an Engine runs with. Every process of a
// multi-process population must derive shard assignment from the same
// normalized shape, which is why the rule is exported rather than buried
// in New. It panics when Agents is not positive.
func (c Config) Normalized() Config {
	if c.Agents <= 0 {
		panic("population: Agents must be > 0")
	}
	if c.Name == "" {
		c.Name = "population"
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Shards > c.Agents {
		c.Shards = c.Agents
	}
	return c
}

// TickStats summarises one tick of the whole population.
type TickStats struct {
	Tick      int
	Steps     int          // agent steps executed (== population size)
	Messages  int          // stimuli routed at this tick's barrier
	Delivered int          // mailbox stimuli injected into agents this tick
	Actions   int          // actions chosen by agent reasoners this tick
	Observed  stats.Online // Config.Observe across the population
}

// Work is the tick's deterministic work proxy: one unit per agent step plus
// one per delivered stimulus. Unlike wall time it is byte-identical at any
// worker count, which is what lets scaling tables compare runs.
func (t TickStats) Work() float64 { return float64(t.Steps + t.Delivered) }

// WorkWindow bounds the per-tick work-proxy history the engine retains for
// quantiles: a fixed-capacity ring holding exactly the most recent
// WorkWindow ticks (the whole run when shorter), overwritten in place with
// no copying or reallocation ever. The history is bounded because engines
// live arbitrarily long under sawd: an unbounded slice would grow memory,
// snapshot size and Status cost linearly with uptime. The bound is a
// constant (never wall-clock-derived), so retention — like everything else
// — is a pure function of tick count and stays deterministic.
const WorkWindow = 4096

// The mailbox free list is bounded the same way the work history is, and
// for the same reason: engines live arbitrarily long under sawd, and one
// bursty tick (a large external ingest, say) must not pin its peak mailbox
// memory for the engine's whole lifetime. The bound is demand-adaptive
// rather than a constant — after each barrier the list is trimmed to twice
// the number of mailboxes that tick actually consumed (plus slack), so
// steady-state ticks still recycle every slice allocation-free at any
// population size, while burst memory is released on the first quiet tick.
// Individual slices a burst grew past maxFreeBoxCap stimuli are never
// recycled at all. The free list holds no live state, so both bounds are
// memory policy only — behavior is byte-identical.
const (
	freeBoxSlack  = 64
	maxFreeBoxCap = 256
)

// RunStats aggregates a multi-tick run.
type RunStats struct {
	Ticks, Agents, Shards               int
	Steps, Messages, Delivered, Actions int64
	// Observed is the final tick's population aggregate: a deterministic
	// checksum of where the simulation ended up.
	Observed stats.Online

	work []float64 // recent per-tick Work values (up to WorkWindow ticks), sorted ascending
}

// WorkQuantile returns the q-quantile of the per-tick work proxy over the
// retained history (the most recent WorkWindow ticks; the whole run when
// shorter) — the deterministic stand-in for per-tick latency quantiles.
// The engine keeps the history sorted, so each call only reads it.
func (r RunStats) WorkQuantile(q float64) float64 { return stats.SortedQuantile(r.work, q) }

// Engine steps a sharded population: it owns the tick barrier, the
// double-buffered mailboxes, external ingest and every run counter, and
// delegates the shard steps themselves to its Transport. Create one with
// New (in-process agents) or NewWithTransport (agents hosted elsewhere,
// e.g. internal/cluster workers); Tick and Run must be called from a single
// goroutine (the transport fans each tick out itself).
type Engine struct {
	cfg       Config
	transport Transport
	local     *LocalTransport // set when the transport hosts all agents in-process

	// Double-buffered mailboxes, one slot per agent. cur holds stimuli
	// routed at the previous tick's barrier (read-only during a tick);
	// next is filled by the barrier, then the buffers swap. Only agents
	// with pending mail hold a slice; consumed slices are recycled
	// through the bounded free list at the next barrier, so steady-state
	// ticks reallocate no mailboxes and idle agents cost no memory.
	cur, next [][]core.Stimulus
	free      [][]core.Stimulus // spare mailbox slices (barrier-only; bounded)

	tick                                int
	steps, messages, delivered, actions int64
	lastObserved                        stats.Online
	work                                []float64 // work-proxy ring (see WorkWindow)
	workHead                            int       // oldest element once the ring is full
	workSorted                          []float64 // the ring's values, ascending (what WorkQuantile reads)
	broken                              error     // first transport failure; poisons further ticks
}

// New builds the population in-process: agents are constructed
// sequentially, each from its own Seed- and id-derived RNG, so construction
// is deterministic and independent of both sharding and worker count.
func New(cfg Config) *Engine {
	cfg = cfg.Normalized()
	t := NewLocalTransport(cfg, 0, cfg.Shards)
	e := newEngine(cfg, t)
	e.local = t
	return e
}

// NewWithTransport builds a coordinator engine whose agents live behind t —
// the multi-process entry point. cfg must carry the population shape (Name,
// Agents, Shards, Seed); New, Emit and Observe run transport-side and are
// ignored here.
func NewWithTransport(cfg Config, t Transport) (*Engine, error) {
	if cfg.Agents <= 0 {
		return nil, fmt.Errorf("population: Agents must be > 0, got %d", cfg.Agents)
	}
	if t == nil {
		return nil, fmt.Errorf("population: nil transport")
	}
	return newEngine(cfg.Normalized(), t), nil
}

func newEngine(cfg Config, t Transport) *Engine {
	return &Engine{
		cfg:       cfg,
		transport: t,
		cur:       make([][]core.Stimulus, cfg.Agents),
		next:      make([][]core.Stimulus, cfg.Agents),
	}
}

// Agents reports the population size.
func (e *Engine) Agents() int { return e.cfg.Agents }

// Shards reports the shard count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Agent returns agent id, e.g. for inspection after a run, when the engine
// hosts its agents in-process; for a remote transport it returns nil (use
// Explain, which travels the transport). Do not step or mutate the agent
// while a Tick is in flight.
func (e *Engine) Agent(id int) *core.Agent {
	if e.local == nil {
		return nil
	}
	return e.local.Agent(id)
}

// Ticks reports how many ticks have run.
func (e *Engine) Ticks() int { return e.tick }

// Transport returns the engine's data plane.
func (e *Engine) Transport() Transport { return e.transport }

// Close releases the transport (remote registrations, connections). The
// engine must not be ticked afterwards.
func (e *Engine) Close() error { return e.transport.Close() }

// Explain renders agent id's self-explanation at the engine's current tick,
// wherever the agent lives: in-process directly, or across the transport
// for cluster-hosted populations.
func (e *Engine) Explain(id int) (string, error) {
	if id < 0 || id >= e.cfg.Agents {
		return "", fmt.Errorf("population: agent %d out of range (population %d)", id, e.cfg.Agents)
	}
	if e.broken != nil {
		return "", fmt.Errorf("population: explain: engine poisoned by earlier transport failure: %w", e.broken)
	}
	return e.transport.Explain(id, float64(e.tick))
}

// Tick advances the whole population by one step. It panics when the
// transport fails — impossible for the in-process transport, so callers of
// New need no error path; engines over fallible transports (clusters) use
// TickErr.
func (e *Engine) Tick() TickStats {
	ts, err := e.TickErr()
	if err != nil {
		panic(fmt.Sprintf("population: %v", err))
	}
	return ts
}

// TickErr is Tick with the transport's error surfaced instead of panicking:
// the transport steps every shard (delivering mailboxes, stepping agents in
// index order, collecting emissions), then the barrier routes the shards'
// messages — in shard index order — into the next tick's mailboxes. After a
// transport failure the engine is poisoned (the tick may have half-applied
// remotely) and every further TickErr fails; recover by restoring from the
// last checkpoint.
//
//sacs:hotpath
func (e *Engine) TickErr() (TickStats, error) {
	if e.broken != nil {
		return TickStats{}, fmt.Errorf("population: engine poisoned by earlier transport failure: %w", e.broken)
	}
	m := e.cfg.Metrics
	var stepStart time.Time
	if m != nil {
		stepStart = time.Now() //sacslint:allow detsource observation-only: phase-timing histogram, never read by agent logic
	}
	outs, err := e.transport.Step(e.tick, e.cur)
	if err != nil {
		e.broken = err
		return TickStats{}, fmt.Errorf("population: tick %d: transport: %w", e.tick, err)
	}
	var routeStart time.Time
	if m != nil {
		// Decompose the transport's wall time: "step" is the busy time the
		// shards actually needed, normalised to the pool's concurrency;
		// "barrier" is the rest — waiting on the slowest sibling plus
		// fan-out overhead. Per-shard busy time and mailbox depth feed the
		// histograms here, at the barrier, so the shard hot path itself
		// observes nothing.
		routeStart = time.Now() //sacslint:allow detsource observation-only: phase-timing histogram, never read by agent logic
		var busy int64
		for _, o := range outs {
			busy += o.StepNanos
			m.shardStep.Observe(o.StepNanos)
			m.mailDepth.Observe(int64(o.Delivered))
		}
		wall := routeStart.Sub(stepStart).Nanoseconds()
		per := busy / int64(e.cfg.Pool.Workers())
		if per > wall {
			per = wall
		}
		m.phaseStep.Add(per)
		m.phaseBarrier.Add(wall - per)
	}
	ts := TickStats{Tick: e.tick, Steps: e.cfg.Agents}
	steals := 0
	for _, o := range outs {
		steals += o.Steals
		ts.Delivered += o.Delivered
		ts.Actions += o.Actions
		ts.Observed.Merge(&o.Observed)
		for _, m := range o.Msgs {
			box := e.next[m.To]
			if box == nil {
				box = e.grabBox()
			}
			e.next[m.To] = append(box, m.Stim)
		}
		ts.Messages += len(o.Msgs)
	}
	// Recycle the inboxes this tick consumed (every shard job is done, so
	// nothing reads them any more), then trim the free list toward this
	// tick's actual demand and swap buffers: what was routed just now
	// becomes next tick's inbox.
	recycled := 0
	for i, box := range e.cur {
		if box != nil {
			recycled++
			if cap(box) <= maxFreeBoxCap {
				e.free = append(e.free, box[:0])
			}
			e.cur[i] = nil
		}
	}
	if limit := 2*recycled + freeBoxSlack; len(e.free) > limit {
		for i := limit; i < len(e.free); i++ {
			e.free[i] = nil // release for the GC; the trimmed header would pin them
		}
		e.free = e.free[:limit]
	}
	e.cur, e.next = e.next, e.cur

	e.tick++
	if m != nil {
		m.phaseRoute.Add(time.Since(routeStart).Nanoseconds()) //sacslint:allow detsource observation-only: phase-timing counter, never read by agent logic
		m.ticks.Inc()
		m.lastTick.Set(int64(e.tick))
		m.steals.Add(int64(steals))
	}
	e.steps += int64(ts.Steps)
	e.messages += int64(ts.Messages)
	e.delivered += int64(ts.Delivered)
	e.actions += int64(ts.Actions)
	e.lastObserved = ts.Observed
	e.pushWork(ts.Work())
	return ts, nil
}

// grabBox returns a spare mailbox slice from the free list, or a fresh one.
// Barrier-only (single goroutine), like every mailbox mutation.
func (e *Engine) grabBox() []core.Stimulus {
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free = e.free[:n-1]
		return b
	}
	return make([]core.Stimulus, 0, 4)
}

// pushWork records one tick's work proxy in the bounded ring: appends while
// filling, then overwrites the oldest in place. The retained set is a pure
// function of the tick count, so restored runs keep byte-identical
// quantiles and snapshots. The sorted copy follows by one binary-search
// insert (and, once full, one removal of the evicted value), so no reader
// ever sorts the window.
func (e *Engine) pushWork(v float64) {
	if len(e.work) < WorkWindow {
		e.work = append(e.work, v)
		e.workSorted = slices.Insert(e.workSorted, sort.SearchFloat64s(e.workSorted, v), v)
		return
	}
	old := e.work[e.workHead]
	e.work[e.workHead] = v
	e.workHead = (e.workHead + 1) % WorkWindow
	replaceSorted(e.workSorted, old, v)
}

// replaceSorted replaces one occurrence of old in the ascending slice s
// with v, keeping s ascending: the values between the two positions move
// over by one.
func replaceSorted(s []float64, old, v float64) {
	i := sort.SearchFloat64s(s, old) // s[i] == old
	j := sort.SearchFloat64s(s, v)
	if j > i {
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = v
	} else {
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	}
}

// setWork replaces the work history with w, oldest-first, and rebuilds the
// sorted copy from it.
func (e *Engine) setWork(w []float64) {
	e.work = append(e.work[:0], w...)
	e.workHead = 0
	e.workSorted = append(e.workSorted[:0], w...)
	sort.Float64s(e.workSorted)
}

// workHistory linearizes the work ring oldest-first into a fresh slice —
// for snapshots.
func (e *Engine) workHistory() []float64 {
	h := make([]float64, 0, len(e.work))
	return append(append(h, e.work[e.workHead:]...), e.work[:e.workHead]...)
}

// Run executes ticks ticks and returns the aggregate. It may be called
// repeatedly; counters continue across calls and the returned stats cover
// the whole run so far. The work history behind WorkQuantile is the
// engine's own sorted copy of the window, which the next tick updates —
// read the quantiles (or copy) before running further ticks.
func (e *Engine) Run(ticks int) RunStats {
	for i := 0; i < ticks; i++ {
		e.Tick()
	}
	return RunStats{
		Ticks: e.tick, Agents: e.Agents(), Shards: e.Shards(),
		Steps: e.steps, Messages: e.messages, Delivered: e.delivered, Actions: e.actions,
		Observed: e.lastObserved,
		work:     e.workSorted,
	}
}
