package population

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/goals"
	"sacs/internal/knowledge"
	"sacs/internal/runner"
	"sacs/internal/stats"
	"sacs/internal/xrand"
)

// Routed is one cross-shard message: a stimulus addressed to agent To,
// produced inside a shard step and delivered by the engine's barrier at the
// start of the next tick.
type Routed struct {
	To   int
	Stim core.Stimulus
}

// ShardExchange is one shard's contribution to a tick barrier: the shard's
// work counters, its slice of the population observation, and the messages
// its agents sent (in agent-step order). The engine merges exchanges in
// shard index order, which is what keeps every aggregate deterministic.
// Exchanges are pooled by their transport: the engine reads them only until
// the next Step call and never retains them.
type ShardExchange struct {
	Delivered int          // mailbox stimuli injected into this shard's agents
	Actions   int          // actions chosen by this shard's reasoners
	Observed  stats.Online // Config.Observe over this shard's agents
	Msgs      []Routed     // stimuli sent by this shard's agents, in step order

	// StepNanos is the wall time the shard's step took on its executor —
	// observability only, never an input to stepping, and excluded from the
	// deterministic byte-equality contract (which covers the fields above).
	// It crosses the cluster wire so a coordinator can decompose tick time
	// into compute vs. barrier wait for remote shards too.
	StepNanos int64

	// Steals is 1 when this shard was claimed by an executor other than
	// the one the dispatch plan assigned it to (see LocalTransport.Step) — the
	// intra-tick work stealing counter's unit. Observability only, outside
	// the byte-equality contract exactly like StepNanos.
	Steals int
}

// RangeState is the executor-side state of a contiguous shard range: every
// shard's RNG stream position, every agent's RNG position, and every
// agent's state as the bytes core.Agent.AppendState writes. It is the unit
// of state transfer between an engine snapshot and the transport hosting
// the agents — in process it is handed over as is; for a cluster it is the
// payload that initialises, migrates or rebalances shards of a worker
// (spelled by the checkpoint codec, which carries each run in a frame of
// its own, with its length and CRC-32C, as a snapshot file does). A
// transport whose owned shards have gaps transfers them one contiguous run
// at a time.
type RangeState struct {
	LoShard, HiShard int // shard interval [LoShard, HiShard)
	LoAgent, HiAgent int // corresponding agent interval

	ShardRNG []uint64 // one stream position per shard
	AgentRNG []uint64 // one stream position per agent
	// Runs holds one encoded run per shard, in shard order: the states of
	// the shard's agents in id order, back to back.
	Runs [][]byte
}

// Transport is the engine's cross-shard data plane: the engine owns the
// tick barrier, mailbox routing, counters and external ingest; the
// transport owns the agents and executes the shard steps. The in-process
// default is LocalTransport (zero extra cost over the pre-transport
// engine); internal/cluster implements the same contract over TCP so
// shards can live in other processes.
//
// The determinism contract carries over unchanged: Step must return one
// exchange per shard of the whole population, in shard index order, with
// the same bytes a LocalTransport over the same Config would produce.
type Transport interface {
	// Step executes tick `tick` on every shard and returns the per-shard
	// exchanges in shard index order. mail is indexed by global agent id
	// and holds each agent's pending inbox; implementations read only
	// their own agents' boxes and must not retain mail — nor the returned
	// exchanges — past the next Step call. A non-nil error means the tick
	// did not complete coherently and the engine is no longer consistent
	// with its transport (resume from a checkpoint).
	Step(tick int, mail [][]core.Stimulus) ([]*ShardExchange, error)
	// Export returns the full population's executor state (RNG stream
	// positions and agent states, in index order) for a snapshot, with
	// each shard's run in a buffer of its own that the caller may keep.
	// LocalTransport exports through ExportRange; a cluster drains each
	// worker's owned runs.
	Export() (*RangeState, error)
	// Install overlays previously exported state onto freshly constructed
	// agents — the transport half of Restore.
	Install(*RangeState) error
	// Explain renders agent id's self-explanation at simulation time now.
	Explain(id int, now float64) (string, error)
	// Close releases transport resources (connections, remote
	// registrations). The in-process transport's Close is a no-op.
	Close() error
}

// Partition splits n items into parts contiguous, near-equal ranges and
// returns the bounds slice: range p owns [bounds[p], bounds[p+1]), with the
// first n%parts ranges holding one extra item. It is the single partition
// rule shared by agent-to-shard assignment and, in internal/cluster,
// shard-to-worker assignment, so every process derives the identical split.
func Partition(n, parts int) []int {
	bounds := make([]int, parts+1)
	size, extra := n/parts, n%parts
	for p := 0; p < parts; p++ {
		bounds[p+1] = bounds[p] + size
		if p < extra {
			bounds[p+1]++
		}
	}
	return bounds
}

// ValidateShardRange checks that [lo, hi) is a non-empty shard interval of
// a population with shards shards. It is the single range-validation
// authority next to Partition's single partition rule: NewLocalTransport,
// Snapshot.Range and the cluster attach path all route through it, so an
// invalid range is reported identically wherever it is caught.
func ValidateShardRange(lo, hi, shards int) error {
	if lo < 0 || hi > shards || lo >= hi {
		return fmt.Errorf("population: shard range [%d, %d) outside [0, %d)", lo, hi, shards)
	}
	return nil
}

// LocalTransport hosts a set of shards of a population in-process: it
// constructs those shards' agents and steps them through the configured
// runner pool. NewLocalTransport(cfg, 0, shards) — what New installs — is
// the whole-population case and reproduces the pre-transport engine
// byte-for-byte. A worker process in internal/cluster hosts a subset, which
// live migration grows with Adopt and shrinks with Release. Construction is
// per-agent-id deterministic (each agent's stream derives from Seed and id
// alone), so shards built remotely are identical to the same shards of a
// single-process population, and an ownership change builds or drops only
// the shards that move.
type LocalTransport struct {
	cfg    Config
	bounds []int // global shard partition: shard s owns agents [bounds[s], bounds[s+1])
	owned  []int // owned shards, ascending; replaced, never modified, by Adopt and Release

	// Sparse global-indexed state: a slot is populated exactly when its
	// shard is owned.
	agents    []*core.Agent
	rngs      []*rand.Rand // one persistent stream per owned shard
	shardSrcs []*xrand.Source
	agentSrcs []*xrand.Source

	// results holds one reusable exchange per owned shard, in owned order;
	// stepShard resets and refills it, so the per-tick fan-out allocates
	// neither exchanges nor (steady-state) outbox slices.
	results []*ShardExchange

	// Dispatch-order plane: the per-shard cost model the executors feed
	// and the per-tick scratch lptPlan reuses to turn its estimates into a
	// dispatch order. Observation-only (see lptPlan). It is the population's
	// one cost model: Step publishes it as the shard cost gauges.
	costs   *CostModel
	order   []int     // dispatch positions, indices into owned
	costBuf []float64 // lptPlan input scratch, one slot per owned shard
}

// NewLocalTransport builds the agents of shards [lo, hi) of cfg's
// population; lo == hi == 0 builds a transport that owns no shards until it
// Adopts some. It panics on an invalid configuration or range, exactly as
// New does on an invalid configuration.
func NewLocalTransport(cfg Config, lo, hi int) *LocalTransport {
	cfg = cfg.Normalized()
	if cfg.New == nil {
		panic("population: Config.New is required")
	}
	if lo != 0 || hi != 0 {
		if err := ValidateShardRange(lo, hi, cfg.Shards); err != nil {
			panic(err.Error())
		}
	}
	t := &LocalTransport{
		cfg:       cfg,
		bounds:    Partition(cfg.Agents, cfg.Shards),
		agents:    make([]*core.Agent, cfg.Agents),
		rngs:      make([]*rand.Rand, cfg.Shards),
		shardSrcs: make([]*xrand.Source, cfg.Shards),
		agentSrcs: make([]*xrand.Source, cfg.Agents),
		costs:     NewCostModel(cfg.Shards),
	}
	t.build(lo, hi)
	t.own(lo, hi)
	return t
}

// build constructs the agents, step arenas and RNG streams of the unowned
// shards [lo, hi) into their global slots. It leaves the owned list alone:
// the caller commits the shards, or drops them again.
//
// Construction is a pure function of Seed and agent id, so the shards are
// built as one job each on the engine's pool (inline on a nil pool), each
// agent from its own stream, in id order within its shard. A panicking
// Config.New is re-raised unchanged after the fan-out; when several
// shards fail, the lowest shard's failure is the one raised.
func (t *LocalTransport) build(lo, hi int) {
	key := runner.Key{Experiment: t.cfg.Name, System: "build"}
	fails := runner.FanOut(t.cfg.Pool, key, hi-lo, func(i int) (fail any) {
		defer func() { fail = recover() }()
		s := lo + i
		// Re-home the shard's agents' hot step state into one contiguous
		// arena block, in step order: the shard step then walks adjacent
		// memory instead of pointer-chasing per-agent heap allocations.
		// Adoption is pure layout — no observable state changes (see
		// core.Arena) — so construction stays deterministic.
		ar := core.NewArena(t.bounds[s+1] - t.bounds[s])
		for id := t.bounds[s]; id < t.bounds[s+1]; id++ {
			t.agentSrcs[id] = xrand.NewSource(mix(t.cfg.Seed, 0x9E3779B97F4A7C15, int64(id)))
			a := t.cfg.New(id, rand.New(t.agentSrcs[id]))
			if a == nil {
				return nil // reported below, in shard order
			}
			t.agents[id] = a
			ar.Adopt(a)
		}
		return nil
	})
	for s := lo; s < hi; s++ {
		if fail := fails[s-lo]; fail != nil {
			panic(fail)
		}
		for id := t.bounds[s]; id < t.bounds[s+1]; id++ {
			if t.agents[id] == nil {
				panic(fmt.Sprintf("population: Config.New returned nil for agent %d", id))
			}
		}
		t.shardSrcs[s] = xrand.NewSource(mix(t.cfg.Seed, 0xBF58476D1CE4E5B9, int64(s)))
		t.rngs[s] = rand.New(t.shardSrcs[s])
	}
	// A knowledge store and a goal switcher each have one owner (see
	// knowledge.Store and goals.Switcher): two agents sharing one would be
	// stepped concurrently by different shard jobs.
	n := t.bounds[hi] - t.bounds[lo]
	stores := make(map[*knowledge.Store]int, n)
	switchers := make(map[*goals.Switcher]int, n)
	for id, a := range t.agents {
		if a == nil {
			continue
		}
		if prev, ok := stores[a.Store()]; ok {
			panic(fmt.Sprintf("population: agents %d and %d share a knowledge store", prev, id))
		}
		stores[a.Store()] = id
		if sw := a.Goals(); sw != nil {
			if prev, ok := switchers[sw]; ok {
				panic(fmt.Sprintf("population: agents %d and %d share a goal switcher", prev, id))
			}
			switchers[sw] = id
		}
	}
}

// drop clears shards [lo, hi)'s global slots.
func (t *LocalTransport) drop(lo, hi int) {
	for id := t.bounds[lo]; id < t.bounds[hi]; id++ {
		t.agents[id], t.agentSrcs[id] = nil, nil
	}
	for s := lo; s < hi; s++ {
		t.rngs[s], t.shardSrcs[s] = nil, nil
	}
}

// own adds the built, unowned shards [lo, hi) to the owned list.
func (t *LocalTransport) own(lo, hi int) {
	i := sort.SearchInts(t.owned, lo)
	owned := make([]int, 0, len(t.owned)+hi-lo)
	owned = append(owned, t.owned[:i]...)
	for s := lo; s < hi; s++ {
		owned = append(owned, s)
	}
	t.setOwned(append(owned, t.owned[i:]...))
}

// setOwned commits a new owned list and sizes the per-tick step scratch
// to it.
func (t *LocalTransport) setOwned(owned []int) {
	t.owned = owned
	t.results = make([]*ShardExchange, len(owned))
	for i := range t.results {
		t.results[i] = &ShardExchange{}
	}
	t.order = make([]int, len(owned))
	t.costBuf = make([]float64, len(owned))
}

// owns reports whether every shard of the valid range [lo, hi) is owned.
func (t *LocalTransport) owns(lo, hi int) bool {
	i := sort.SearchInts(t.owned, lo)
	j := i + hi - lo - 1
	return j < len(t.owned) && t.owned[i] == lo && t.owned[j] == hi-1
}

// mix derives a well-separated sub-seed from a base seed, a stream salt and
// an index. Arithmetic is in uint64 so overflow wraps deterministically.
func mix(seed int64, salt uint64, i int64) int64 {
	x := uint64(seed) ^ salt*uint64(i+1)
	x ^= x >> 31
	return int64(x*0x94D049BB133111EB) + i
}

// Owned reports the owned shards in ascending order. Adopt and Release
// replace the slice rather than modify it; callers must not modify it
// either.
func (t *LocalTransport) Owned() []int { return t.owned }

// Agent returns agent id when this transport owns it, nil otherwise.
func (t *LocalTransport) Agent(id int) *core.Agent {
	if id < 0 || id >= len(t.agents) {
		return nil
	}
	return t.agents[id]
}

// Step dispatches the owned shards in LPT cost order and returns their
// exchanges in shard index order — the dispatch order and the merge order
// are deliberately decoupled, which is the whole determinism story of
// cost-aware scheduling. It never fails: in-process shard steps surface
// bugs as panics through the pool's per-job recovery, not as transport
// errors.
//
// min(workers, shards) executor jobs share an atomic claim cursor over
// the planned order. Executor e's planned share is positions e, e+E,
// e+2E, …; a claim outside that stride means the planned executor was
// still busy and the work moved — one steal, recorded on the stolen
// shard's exchange.
//
//sacs:hotpath
func (t *LocalTransport) Step(tick int, mail [][]core.Stimulus) ([]*ShardExchange, error) {
	now := float64(tick)
	n := len(t.owned)
	for i, s := range t.owned {
		t.costBuf[i] = t.costs.Estimate(s)
	}
	lptPlan(t.order, t.costBuf)
	key := runner.Key{Experiment: t.cfg.Name, System: "shard"}
	execs := t.cfg.Pool.Workers()
	if execs > n {
		execs = n
	}
	var cursor atomic.Int64
	//sacslint:allow hotalloc one executor closure per tick, not per agent; the claim loop needs the shared cursor
	runner.FanOut(t.cfg.Pool, key, execs, func(e int) int {
		for {
			pos := int(cursor.Add(1)) - 1
			if pos >= n {
				return 0
			}
			i := t.order[pos]
			res := t.stepShard(t.owned[i], t.results[i], tick, now, mail)
			if pos%execs != e {
				res.Steals = 1
			}
		}
	})
	if m := t.cfg.Metrics; m != nil {
		m.observeCosts(t.costs)
	}
	return t.results, nil
}

// stepShard runs shard s for one tick into its pooled exchange res. It
// touches only shard-local state: its own agents, its own RNG stream, the
// read-only mailboxes of its own agents, and res (reset here, read by the
// engine at the barrier, never shared between shards).
//
//sacs:hotpath
func (t *LocalTransport) stepShard(s int, res *ShardExchange, tick int, now float64, mail [][]core.Stimulus) *ShardExchange {
	start := time.Now() //sacslint:allow detsource observation-only: per-shard busy-time estimate feeds the cost model, not agent state
	res.Delivered, res.Actions, res.Steals = 0, 0, 0
	res.Msgs = res.Msgs[:0]
	res.Observed = stats.Online{}
	ctx := EmitContext{Tick: tick, Now: now, Rng: t.rngs[s], agents: t.cfg.Agents, out: res}
	for id := t.bounds[s]; id < t.bounds[s+1]; id++ {
		a := t.agents[id]
		if inbox := mail[id]; len(inbox) > 0 {
			a.Inject(now, inbox)
			res.Delivered += len(inbox)
		}
		actions := a.Step(now, nil)
		res.Actions += len(actions)
		if t.cfg.Observe != nil {
			res.Observed.Add(t.cfg.Observe(id, a))
		}
		if t.cfg.Emit != nil {
			ctx.ID, ctx.Agent, ctx.Actions = id, a, actions
			t.cfg.Emit(&ctx)
		}
	}
	res.StepNanos = time.Since(start).Nanoseconds() //sacslint:allow detsource observation-only: per-shard busy-time estimate feeds the cost model, not agent state
	t.costs.Observe(s, res.StepNanos)
	return res
}

// Costs exposes the transport's cost model (observation-only; see
// CostModel for its concurrency contract).
func (t *LocalTransport) Costs() *CostModel { return t.costs }

// Export is ExportRange over the owned shards, which must form one
// contiguous run; a transport with gaps exports run by run through
// ExportRange.
func (t *LocalTransport) Export() (*RangeState, error) {
	if len(t.owned) == 0 {
		return nil, fmt.Errorf("population: export: no shards owned")
	}
	return t.ExportRange(t.owned[0], t.owned[len(t.owned)-1]+1)
}

// ExportRange copies out the state of shards [lo, hi), which must all be
// owned — what a cluster worker answers a drain with, for an export or a
// live migration. It is streamRuns with a sink that keeps each run's
// buffer: every run is encoded into one of its own, so the result is
// byte-for-byte the serial loop's. When several agents fail to export,
// the error names the lowest agent id.
func (t *LocalTransport) ExportRange(lo, hi int) (*RangeState, error) {
	if err := ValidateShardRange(lo, hi, t.cfg.Shards); err != nil {
		return nil, err
	}
	if !t.owns(lo, hi) {
		return nil, fmt.Errorf("population: export range [%d, %d) outside owned shards", lo, hi)
	}
	rs := &RangeState{
		LoShard: lo, HiShard: hi, LoAgent: t.bounds[lo], HiAgent: t.bounds[hi],
		Runs: make([][]byte, 0, hi-lo),
	}
	rs.ShardRNG, rs.AgentRNG = t.positions(lo, hi)
	err := t.streamRuns(lo, hi, func(e *codec.Encoder) error {
		// Keep the run and hand its slot a fresh encoder.
		rs.Runs = append(rs.Runs, e.Bytes())
		*e = codec.Encoder{}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// positions reads the RNG stream positions of the owned shards [lo, hi)
// and of their agents.
func (t *LocalTransport) positions(lo, hi int) (shardRNG, agentRNG []uint64) {
	shardRNG = make([]uint64, hi-lo)
	for s := lo; s < hi; s++ {
		shardRNG[s-lo] = t.shardSrcs[s].State()
	}
	loA, hiA := t.bounds[lo], t.bounds[hi]
	agentRNG = make([]uint64, hiA-loA)
	for id := loA; id < hiA; id++ {
		agentRNG[id-loA] = t.agentSrcs[id].State()
	}
	return shardRNG, agentRNG
}

// streamRuns encodes the run of every shard of [lo, hi), which the
// transport must own, and hands each to run in shard order as soon as it
// and every run before it are ready. It is the one export schedule:
// Engine.StreamSnapshot hands the runs on and never holds them all at
// once; ExportRange keeps them.
//
// The pool's background workers encode ahead while the calling goroutine
// hands runs over; whenever the next run is not ready and a buffer is
// free, the caller encodes one too, so the stream never waits on a pool
// busy elsewhere. At most Pool.Workers()+2 runs are in flight, each in one
// of as many encoders reused within the call. A pool with no background
// worker (nil, or one worker) encodes and hands over shard by shard
// through one encoder. The encoder run gets holds the run and belongs to
// run for the call: run may take its buffer and leave it a zero Encoder,
// or leave it to be reused for a later run. The first error in shard
// order — an agent that cannot export, or run's own — ends the stream,
// and streamRuns returns it once no job of the call is left running.
func (t *LocalTransport) streamRuns(lo, hi int, run func(*codec.Encoder) error) error {
	n := hi - lo
	execs := t.cfg.Pool.Workers() - 1 // background encoders; the caller is the last worker
	slots := 1
	if execs > 0 {
		slots = execs + 3
	}
	// Run i (shard lo+i) is encoded into slot i%slots, which is free once
	// run i-slots has been handed over. mu guards everything but the
	// encoders, which belong to a run's encoding job until it marks the
	// slot ready, and then to the caller until it counts the run handed
	// over.
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		bufs    = make([]codec.Encoder, slots)
		ready   = make([]bool, slots)
		errs    = make([]error, slots)
		next    int  // the next run to claim
		handed  int  // runs handed over
		stopped bool // the caller has stopped handing runs over
	)
	// claim, called with mu held, encodes the next run when its slot is
	// free and reports whether it did.
	claim := func() bool {
		i := next
		if stopped || i >= n || i-handed >= slots {
			return false
		}
		next++
		mu.Unlock()
		// Encode into a copy of the slot's encoder: the slots share cache
		// lines, and two jobs appending through adjacent slice headers
		// would contend for them on every write.
		e := bufs[i%slots]
		err := t.encodeShard(&e, lo+i)
		mu.Lock()
		bufs[i%slots], ready[i%slots], errs[i%slots] = e, true, err
		cond.Broadcast()
		return true
	}
	var b *runner.Batch
	if execs > 0 {
		b = t.cfg.Pool.NewBatch()
		key := runner.Key{Experiment: t.cfg.Name, System: "export"}
		for i := 0; i < execs; i++ {
			k := key
			k.Seed = i
			b.Add(k, func() (any, error) {
				mu.Lock()
				for !stopped && next < n {
					if !claim() {
						cond.Wait()
					}
				}
				mu.Unlock()
				return nil, nil
			})
		}
	}
	defer func() { // also when run panics
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
		if b != nil {
			b.Wait() // an encoder stops after the shard it is on
		}
	}()
	var err error
	mu.Lock()
	for handed < n && err == nil {
		slot := handed % slots
		if !ready[slot] {
			// Encode meanwhile; when no shard can be claimed, the
			// next run is already being encoded.
			if !claim() {
				cond.Wait()
			}
			continue
		}
		ready[slot] = false
		mu.Unlock()
		if err = errs[slot]; err == nil {
			err = run(&bufs[slot])
		}
		mu.Lock()
		handed++
		cond.Broadcast()
	}
	mu.Unlock()
	return err
}

// encodeShard encodes shard s's run into e, emptied first: the states of
// its agents, in id order. An encoder that has held no run yet reserves
// room for the whole run once the first agent's size is known; a reused
// one already holds about a run's worth. A panic in an agent's export is
// reported as the shard's error: streamRuns waits for every run it has
// claimed, so one must always arrive.
func (t *LocalTransport) encodeShard(e *codec.Encoder, s int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d export panicked: %v", s, r)
		}
	}()
	reserve := cap(e.Bytes()) == 0
	e.Reset()
	first, end := t.bounds[s], t.bounds[s+1]
	for id := first; id < end; id++ {
		if reserve && id == first+1 {
			// Room for the rest at the first agent's size plus an
			// eighth: the run grows about once, not in many steps.
			e.Reserve(e.Len() * (end - id) * 9 / 8)
		}
		if err := t.agents[id].AppendState(e); err != nil {
			return fmt.Errorf("agent %d state: %w", id, err)
		}
	}
	return nil
}

// checkState verifies that rs is a well-formed range of this population:
// a valid shard interval, the partition's agent interval for it, and
// slices of matching lengths. op names the caller in the error.
func (t *LocalTransport) checkState(op string, rs *RangeState) error {
	if err := ValidateShardRange(rs.LoShard, rs.HiShard, t.cfg.Shards); err != nil {
		return fmt.Errorf("population: %s: %w", op, err)
	}
	loA, hiA := t.bounds[rs.LoShard], t.bounds[rs.HiShard]
	if rs.LoAgent != loA || rs.HiAgent != hiA {
		return fmt.Errorf("population: %s: shards [%d, %d) carry agents [%d, %d), partition says [%d, %d)",
			op, rs.LoShard, rs.HiShard, rs.LoAgent, rs.HiAgent, loA, hiA)
	}
	if len(rs.ShardRNG) != rs.HiShard-rs.LoShard || len(rs.AgentRNG) != hiA-loA || len(rs.Runs) != rs.HiShard-rs.LoShard {
		return fmt.Errorf("population: %s: state internally inconsistent "+
			"(%d shard streams, %d agent streams, %d agent runs for %d shards, %d agents)",
			op, len(rs.ShardRNG), len(rs.AgentRNG), len(rs.Runs), rs.HiShard-rs.LoShard, hiA-loA)
	}
	return nil
}

// Install overlays rs, which may cover any range of owned shards, onto
// their agents: RNG stream positions and agent states.
func (t *LocalTransport) Install(rs *RangeState) error {
	if err := t.checkState("install", rs); err != nil {
		return err
	}
	if !t.owns(rs.LoShard, rs.HiShard) {
		return fmt.Errorf("population: install: shards [%d, %d) outside owned shards", rs.LoShard, rs.HiShard)
	}
	return t.overlay(rs)
}

// overlay writes a checked rs into its shards' slots: RNG stream positions
// and agent states. Like ExportRange, it runs as one job per shard on the
// engine's pool, which is idle at the barrier; each job restores only its
// own shard's streams and agents, straight from the shard's run, which are
// as independent here as in a parallel tick. When several agents fail to
// restore, the error names the lowest agent id.
func (t *LocalTransport) overlay(rs *RangeState) error {
	key := runner.Key{Experiment: t.cfg.Name, System: "install"}
	errs := runner.FanOut(t.cfg.Pool, key, rs.HiShard-rs.LoShard, func(i int) error {
		s := rs.LoShard + i
		t.shardSrcs[s].SetState(rs.ShardRNG[i])
		d := codec.NewDecoder(rs.Runs[i])
		for id := t.bounds[s]; id < t.bounds[s+1]; id++ {
			t.agentSrcs[id].SetState(rs.AgentRNG[id-rs.LoAgent])
			if err := t.agents[id].RestoreState(d); err != nil {
				return fmt.Errorf("population: restore: agent %d: %w", id, err)
			}
		}
		if err := d.Finish(); err != nil {
			return fmt.Errorf("population: restore: shard %d: %w", s, err)
		}
		return nil
	})
	for _, err := range errs { // shard order, so the lowest failing agent
		if err != nil {
			return err
		}
	}
	return nil
}

// Adopt takes ownership of the shards rs covers, none of which may be
// owned yet: it builds only their agents and installs rs over them. The
// shards already owned are not touched, so their agents step on as the
// same objects. A failed Adopt leaves the transport exactly as it was.
func (t *LocalTransport) Adopt(rs *RangeState) error {
	if err := t.checkState("adopt", rs); err != nil {
		return err
	}
	lo, hi := rs.LoShard, rs.HiShard
	if i := sort.SearchInts(t.owned, lo); i < len(t.owned) && t.owned[i] < hi {
		return fmt.Errorf("population: adopt: shards [%d, %d) overlap owned shard %d", lo, hi, t.owned[i])
	}
	committed := false
	defer func() {
		if !committed { // a RestoreState error, or a panicking Config.New
			t.drop(lo, hi)
		}
	}()
	t.build(lo, hi)
	if err := t.overlay(rs); err != nil {
		return err
	}
	t.own(lo, hi)
	committed = true
	return nil
}

// Release gives up shards [lo, hi), which must all be owned: their agents
// and streams are dropped, and every other owned shard is left as it was.
func (t *LocalTransport) Release(lo, hi int) error {
	if err := ValidateShardRange(lo, hi, t.cfg.Shards); err != nil {
		return fmt.Errorf("population: release: %w", err)
	}
	if !t.owns(lo, hi) {
		return fmt.Errorf("population: release: shards [%d, %d) outside owned shards", lo, hi)
	}
	t.drop(lo, hi)
	i := sort.SearchInts(t.owned, lo)
	owned := make([]int, 0, len(t.owned)-(hi-lo))
	t.setOwned(append(append(owned, t.owned[:i]...), t.owned[i+hi-lo:]...))
	return nil
}

// Explain renders agent id's self-explanation at simulation time now.
func (t *LocalTransport) Explain(id int, now float64) (string, error) {
	a := t.Agent(id)
	if a == nil {
		return "", fmt.Errorf("population: agent %d not hosted here", id)
	}
	return core.ExplainAgent(a, now), nil
}

// Close is a no-op: an in-process transport holds no external resources.
func (t *LocalTransport) Close() error { return nil }
