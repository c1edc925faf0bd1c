package population

import (
	"fmt"
	"time"

	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/stats"
)

// Snapshot is the complete exported state of an Engine at a tick barrier:
// the tick counter, run counters and work history, every RNG stream's
// position, the pending (already routed, not yet delivered) mailboxes, and
// every agent's state, already encoded. It shares no memory with the
// engine — internal/checkpoint frames it into a file, and Restore rebuilds
// a live engine from it.
//
// The determinism contract (DESIGN.md): for a population whose agents keep
// their mutable state in the captured components — knowledge store, goal
// switcher, built-in awareness processes, and the RNG streams the engine
// hands out — Restore(cfg, e.Snapshot()) continues byte-identically to the
// uninterrupted run, at any worker count and across process restarts.
type Snapshot struct {
	// Name, Agents, Shards and Seed echo the exporting Config; Restore
	// validates them against the rebuilding Config so a snapshot cannot be
	// silently resumed into a differently shaped population.
	Name   string
	Agents int
	Shards int
	Seed   int64

	Tick                                int
	Steps, Messages, Delivered, Actions int64
	Observed                            stats.Online
	Work                                []float64 // recent per-tick work proxy (see WorkWindow)

	ShardRNG []uint64 // xrand stream positions, one per shard
	AgentRNG []uint64 // xrand stream positions, one per agent

	// Mail holds each agent's pending inbox: stimuli routed (or enqueued
	// externally) before the snapshot, to be injected at the next tick.
	Mail [][]core.Stimulus

	// Runs holds every agent's state, one encoded run per shard (see
	// RangeState.Runs).
	Runs [][]byte
}

// Range extracts the slice of the snapshot covering shards [lo, hi) — the
// state-transfer payload that initialises a cluster worker hosting that
// range. The returned RangeState shares the snapshot's memory.
func (s *Snapshot) Range(lo, hi int) (*RangeState, error) {
	if err := ValidateShardRange(lo, hi, s.Shards); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if len(s.ShardRNG) != s.Shards || len(s.AgentRNG) != s.Agents || len(s.Runs) != s.Shards {
		return nil, fmt.Errorf("population: snapshot internally inconsistent "+
			"(%d shard streams, %d agent streams, %d agent runs for agents=%d shards=%d)",
			len(s.ShardRNG), len(s.AgentRNG), len(s.Runs), s.Agents, s.Shards)
	}
	bounds := Partition(s.Agents, s.Shards)
	return &RangeState{
		LoShard: lo, HiShard: hi, LoAgent: bounds[lo], HiAgent: bounds[hi],
		ShardRNG: s.ShardRNG[lo:hi],
		AgentRNG: s.AgentRNG[bounds[lo]:bounds[hi]],
		Runs:     s.Runs[lo:hi],
	}, nil
}

// Snapshot exports the engine's complete state. It must be called between
// ticks (never while a Tick is in flight) and fails when an agent carries
// state the checkpoint layer cannot serialise (see core.Agent.AppendState) or, on
// a cluster transport, when a worker cannot be reached.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if err := e.snapshotable(); err != nil {
		return nil, err
	}
	if m := e.cfg.Metrics; m != nil {
		defer m.observeSnapshot(time.Now()) //sacslint:allow detsource observation-only: snapshot-phase timing, never read by agent logic
	}
	rs, err := e.transport.Export()
	if err != nil {
		return nil, fmt.Errorf("population: snapshot at tick %d: %w", e.tick, err)
	}
	if len(rs.ShardRNG) != e.cfg.Shards || len(rs.AgentRNG) != e.cfg.Agents || len(rs.Runs) != e.cfg.Shards {
		return nil, fmt.Errorf("population: snapshot at tick %d: transport exported "+
			"%d shard streams, %d agent streams, %d agent runs for shards=%d agents=%d",
			e.tick, len(rs.ShardRNG), len(rs.AgentRNG), len(rs.Runs), e.cfg.Shards, e.cfg.Agents)
	}
	s := e.head()
	s.ShardRNG, s.AgentRNG, s.Runs = rs.ShardRNG, rs.AgentRNG, rs.Runs
	s.Mail = make([][]core.Stimulus, e.cfg.Agents)
	for i, inbox := range e.cur {
		if len(inbox) > 0 {
			s.Mail[i] = append([]core.Stimulus(nil), inbox...)
		}
	}
	return s, nil
}

// Sink receives a snapshot as a stream: Head gets the snapshot, then Run
// gets each shard's run, in shard order. The snapshot Head gets holds its
// Runs only when it was materialised before the stream began (see
// Snapshot.Stream); a streamed one holds none. Neither the snapshot nor a
// run may be kept past the call that hands it over: a stream shares the
// engine's pending mail and reuses the runs' buffers.
type Sink struct {
	Head func(*Snapshot) error
	Run  func([]byte) error
}

// Stream hands the snapshot to k: the snapshot, then each of its runs.
func (s *Snapshot) Stream(k Sink) error {
	if s.Agents > 0 && len(s.Runs) != s.Shards {
		return fmt.Errorf("population: snapshot has %d agent runs for %d shards", len(s.Runs), s.Shards)
	}
	if err := k.Head(s); err != nil {
		return err
	}
	for _, run := range s.Runs {
		if err := k.Run(run); err != nil {
			return err
		}
	}
	return nil
}

// StreamSnapshot hands the engine's snapshot to k as a stream, with the
// bytes Snapshot's would encode to. When the engine's transport is the
// in-process LocalTransport itself, the agents' state is never held
// whole: the RNG positions and the pending mail are read at the barrier
// and handed to Head, then the engine's pool encodes the shards' runs
// while Run takes each in shard order, with at most Pool.Workers()+2
// runs in flight. Any other transport — a cluster, or a decorator around
// a LocalTransport — exports through Snapshot, and the snapshot it
// returns is streamed. The snapshot-phase metric times the whole streamed
// export, Run's calls included, on the first path, and Snapshot alone on
// the second. Like Snapshot, it must be called between ticks.
func (e *Engine) StreamSnapshot(k Sink) error {
	lt, ok := e.transport.(*LocalTransport)
	if !ok {
		s, err := e.Snapshot()
		if err != nil {
			return err
		}
		return s.Stream(k)
	}
	if err := e.snapshotable(); err != nil {
		return err
	}
	if !lt.owns(0, e.cfg.Shards) {
		return fmt.Errorf("population: snapshot at tick %d: transport owns %d of %d shards", e.tick, len(lt.owned), e.cfg.Shards)
	}
	if m := e.cfg.Metrics; m != nil {
		defer m.observeSnapshot(time.Now()) //sacslint:allow detsource observation-only: snapshot-phase timing, never read by agent logic
	}
	s := e.head()
	s.ShardRNG, s.AgentRNG = lt.positions(0, e.cfg.Shards)
	if err := k.Head(s); err != nil {
		return err
	}
	if err := lt.streamRuns(0, e.cfg.Shards, func(enc *codec.Encoder) error { return k.Run(enc.Bytes()) }); err != nil {
		return fmt.Errorf("population: snapshot at tick %d: %w", e.tick, err)
	}
	return nil
}

// snapshotable refuses a snapshot of a poisoned engine: a failed tick may
// have half-applied on remote executors, so a snapshot taken now could
// mix this engine's tick counter with later agent state and resume into
// silent divergence.
func (e *Engine) snapshotable() error {
	if e.broken != nil {
		return fmt.Errorf("population: snapshot: engine poisoned by earlier transport failure: %w", e.broken)
	}
	return nil
}

// head is the part of a snapshot the engine itself holds: the shape, the
// counters and work history, and the pending mail, shared with the engine
// rather than copied.
func (e *Engine) head() *Snapshot {
	return &Snapshot{
		Name:      e.cfg.Name,
		Agents:    e.cfg.Agents,
		Shards:    e.cfg.Shards,
		Seed:      e.cfg.Seed,
		Tick:      e.tick,
		Steps:     e.steps,
		Messages:  e.messages,
		Delivered: e.delivered,
		Actions:   e.actions,
		Observed:  e.lastObserved,
		Work:      e.workHistory(),
		Mail:      e.cur,
	}
}

// Restore builds an engine from cfg exactly as New does, then reinstalls
// the snapshot: RNG stream positions, agent states, pending mailboxes, tick
// and counters. cfg must describe the same population the snapshot was
// exported from (same workload builder, agent count, shard count and seed);
// shape mismatches are errors before any state is touched.
//
// Construction runs cfg.New with each agent's stream at its seed position —
// identical to the original construction — and only afterwards repositions
// the streams to their snapshot state. Agent factories therefore need no
// special resume mode, but any mutable state a factory hides in closures
// (rather than in the store or behind the handed-out RNG) will silently
// reset; DESIGN.md spells out this caller obligation.
func Restore(cfg Config, s *Snapshot) (*Engine, error) {
	e := New(cfg)
	if err := e.install(s); err != nil {
		return nil, err
	}
	return e, nil
}

// RestoreWithTransport is Restore for an engine whose agents live behind t:
// the transport's executors must already hold freshly constructed agents
// (each cluster worker runs cfg.New exactly as construction does), and
// Install pushes each range its slice of the snapshot. See
// NewWithTransport for what cfg must carry.
func RestoreWithTransport(cfg Config, t Transport, s *Snapshot) (*Engine, error) {
	e, err := NewWithTransport(cfg, t)
	if err != nil {
		return nil, err
	}
	if err := e.install(s); err != nil {
		return nil, err
	}
	return e, nil
}

// install validates the snapshot against the engine's shape and overlays it
// onto the freshly built engine and its transport.
func (e *Engine) install(s *Snapshot) error {
	if e.cfg.Name != s.Name {
		return fmt.Errorf("population: restore: config name %q, snapshot of %q", e.cfg.Name, s.Name)
	}
	if e.cfg.Agents != s.Agents || e.cfg.Shards != s.Shards || e.cfg.Seed != s.Seed {
		return fmt.Errorf(
			"population: restore: config (agents=%d shards=%d seed=%d) does not match snapshot (agents=%d shards=%d seed=%d)",
			e.cfg.Agents, e.cfg.Shards, e.cfg.Seed, s.Agents, s.Shards, s.Seed)
	}
	if len(s.ShardRNG) != s.Shards || len(s.AgentRNG) != s.Agents ||
		len(s.Mail) != s.Agents || len(s.Runs) != s.Shards {
		return fmt.Errorf("population: restore: snapshot internally inconsistent "+
			"(%d shard streams, %d agent streams, %d mailboxes, %d agent runs for agents=%d shards=%d)",
			len(s.ShardRNG), len(s.AgentRNG), len(s.Mail), len(s.Runs), s.Agents, s.Shards)
	}
	if err := e.transport.Install(&RangeState{
		LoShard: 0, HiShard: s.Shards, LoAgent: 0, HiAgent: s.Agents,
		ShardRNG: s.ShardRNG, AgentRNG: s.AgentRNG, Runs: s.Runs,
	}); err != nil {
		return err
	}
	for i, inbox := range s.Mail {
		if len(inbox) > 0 {
			e.cur[i] = append(e.cur[i][:0], inbox...)
		}
	}
	e.tick = s.Tick
	e.steps, e.messages, e.delivered, e.actions = s.Steps, s.Messages, s.Delivered, s.Actions
	e.lastObserved = s.Observed
	// Refill the work ring oldest-first. An engine's snapshot holds at most
	// WorkWindow entries, but one built outside the engine (or a crafted
	// file whose checksums are valid) may hold more: keep the newest
	// WorkWindow, or the ring would hold the excess and never evict it.
	w := s.Work
	if len(w) > WorkWindow {
		w = w[len(w)-WorkWindow:]
	}
	e.setWork(w)
	return nil
}

// Enqueue queues an externally produced stimulus for delivery to agent `to`
// at the start of the next Tick, exactly as if a peer had sent it at the
// previous tick's barrier. It is how a hosting service (internal/serve)
// ingests outside traffic into a running population. Enqueue must be called
// from the engine's goroutine (never while a Tick is in flight); pending
// stimuli are part of the engine's Snapshot.
func (e *Engine) Enqueue(to int, s core.Stimulus) error {
	if to < 0 || to >= e.cfg.Agents {
		return fmt.Errorf("population: enqueue to out-of-range agent %d (population %d)", to, e.cfg.Agents)
	}
	box := e.cur[to]
	if box == nil {
		box = e.grabBox()
	}
	e.cur[to] = append(box, s)
	return nil
}
