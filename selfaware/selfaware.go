package selfaware

import (
	"sacs/internal/checkpoint"
	"sacs/internal/core"
	"sacs/internal/goals"
	"sacs/internal/knowledge"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/serve"
)

// Level enumerates the levels of computational self-awareness.
type Level = core.Level

// The five levels of self-awareness, translated from Neisser's levels of
// human self-knowledge.
const (
	LevelStimulus    = core.LevelStimulus
	LevelInteraction = core.LevelInteraction
	LevelTime        = core.LevelTime
	LevelGoal        = core.LevelGoal
	LevelMeta        = core.LevelMeta
)

// Capabilities is a bit set of levels an agent possesses.
type Capabilities = core.Capabilities

// FullStack has every self-awareness level.
const FullStack = core.FullStack

// Caps builds a capability set from levels.
func Caps(levels ...Level) Capabilities { return core.Caps(levels...) }

// Scope distinguishes private from public self-awareness.
type Scope = knowledge.Scope

// Scope values.
const (
	Private = knowledge.Private
	Public  = knowledge.Public
)

// Stimulus is one observation delivered by a sensor.
type Stimulus = core.Stimulus

// Sensor produces stimuli on demand.
type Sensor = core.Sensor

// ScalarSensor adapts a scalar-returning function to Sensor.
func ScalarSensor(name string, scope Scope, fn func(now float64) float64) Sensor {
	return core.ScalarSensor(name, scope, fn)
}

// Action is one self-expressive act.
type Action = core.Action

// Effector executes actions.
type Effector = core.Effector

// EffectorFunc adapts a function to Effector.
type EffectorFunc = core.EffectorFunc

// Reasoner turns self-knowledge into actions.
type Reasoner = core.Reasoner

// ReasonerFunc adapts a function to Reasoner.
type ReasonerFunc = core.ReasonerFunc

// Decision is the context handed to a Reasoner and the record used for
// self-explanation.
type Decision = core.Decision

// Explainer retains recent decisions and renders explanations.
type Explainer = core.Explainer

// Agent is a self-aware entity.
type Agent = core.Agent

// Config assembles an Agent.
type Config = core.Config

// New builds an agent.
func New(cfg Config) *Agent { return core.New(cfg) }

// Attention couples an attention policy with a sensing budget.
type Attention = core.Attention

// AttentionPolicy decides which sensors to sample under a budget.
type AttentionPolicy = core.AttentionPolicy

// Attention policies.
type (
	// RoundRobinAttention cycles through sensors.
	RoundRobinAttention = core.RoundRobinAttention
	// RandomAttention samples uniformly.
	RandomAttention = core.RandomAttention
	// VOIAttention samples by value of information.
	VOIAttention = core.VOIAttention
)

// MetaMonitor is the agent's meta-self-awareness process.
type MetaMonitor = core.MetaMonitor

// Portfolio is standalone meta-self-awareness over decision strategies.
type Portfolio = core.Portfolio

// Collective is push-sum gossip for collective self-awareness without a
// global component.
type Collective = core.Collective

// Hierarchy is two-level hierarchical collective self-awareness: clusters
// aggregate locally, representatives gossip globally.
type Hierarchy = core.Hierarchy

// NewHierarchy builds a hierarchical collective; see core.NewHierarchy.
var NewHierarchy = core.NewHierarchy

// NewCollective builds a collective; see core.NewCollective.
var NewCollective = core.NewCollective

// RingTopology builds a small-world gossip topology.
var RingTopology = core.RingTopology

// Population types: the sharded engine that steps large collections of
// agents deterministically through a worker pool, with double-buffered
// cross-agent mailboxes. See DESIGN.md for the sharding/determinism
// contract.
type (
	// Population steps a sharded agent population tick by tick.
	Population = population.Engine
	// PopulationConfig assembles a Population.
	PopulationConfig = population.Config
	// EmitContext lets stepped agents publish stimuli to peers for
	// next-tick delivery.
	EmitContext = population.EmitContext
	// PopulationTickStats summarises one population tick.
	PopulationTickStats = population.TickStats
	// PopulationRunStats aggregates a multi-tick population run.
	PopulationRunStats = population.RunStats
)

// NewPopulation builds a sharded population engine.
var NewPopulation = population.New

// Observability: the allocation-free metrics plane (internal/obs). Metrics
// are observation-only — they never influence stepping and are excluded
// from snapshots, so instrumented and uninstrumented runs are
// byte-identical. See DESIGN.md "Observability".
type (
	// MetricsRegistry collects instruments and renders them as Prometheus
	// text exposition or one JSON object.
	MetricsRegistry = obs.Registry
	// Metrics is a Population's tick-phase instrument set; attach one via
	// PopulationConfig.Metrics to decompose tick time into step, barrier
	// wait, mailbox routing and snapshot encode.
	Metrics = population.Metrics
)

// NewMetricsRegistry builds an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// NewPopulationMetrics registers a population's tick-phase instruments on
// reg under the given population label and returns the set to place in
// PopulationConfig.Metrics. A nil registry returns nil (metrics off).
var NewPopulationMetrics = population.NewMetrics

// Distribution: the engine's cross-shard data plane is an interface, so
// shards can be hosted by worker processes (internal/cluster, surfaced by
// `sawd -worker`/`-cluster`) with byte-identical results at a fixed shard
// count. See DESIGN.md "The shard transport".
type (
	// PopulationTransport executes a population's shard steps on behalf
	// of the engine's tick barrier; the in-process default is
	// NewLocalTransport's.
	PopulationTransport = population.Transport
	// ShardRangeState is the executor-side state of a contiguous shard
	// range — the unit of cluster worker initialisation and rebalance.
	ShardRangeState = population.RangeState
)

// NewPopulationWithTransport builds a coordinator engine whose agents live
// behind the given transport.
var NewPopulationWithTransport = population.NewWithTransport

// RestorePopulationWithTransport is NewPopulationWithTransport's resume
// counterpart.
var RestorePopulationWithTransport = population.RestoreWithTransport

// Checkpointing: a Population can be snapshotted at any tick barrier and
// restored — in the same process or a fresh one — continuing
// byte-identically at any worker count, provided the workload is
// checkpoint-friendly (mutable agent state confined to the knowledge
// store, goal switcher, built-in processes and engine-owned RNG streams;
// see DESIGN.md "Checkpointable populations").
// PopulationSnapshot is the complete exported state of a Population.
type PopulationSnapshot = population.Snapshot

// SnapshotPopulation exports a population's complete state; equivalent to
// the Population's own Snapshot method, exported here so the whole
// checkpoint surface is visible in one place.
func SnapshotPopulation(p *Population) (*PopulationSnapshot, error) { return p.Snapshot() }

// RestorePopulation rebuilds a live Population from a snapshot; cfg must
// describe the same workload the snapshot was exported from.
var RestorePopulation = population.Restore

// Snapshot (de)serialisation: the versioned, CRC-checked binary format of
// internal/checkpoint (wire format documented in DESIGN.md).
var (
	// EncodeSnapshot writes a snapshot plus caller metadata to a writer.
	EncodeSnapshot = checkpoint.Encode
	// DecodeSnapshot reads one back, verifying magic, version and each
	// frame's checksum.
	DecodeSnapshot = checkpoint.Decode
	// WriteSnapshot atomically writes a snapshot file (temp + rename).
	WriteSnapshot = checkpoint.Write
	// ReadSnapshot reads a snapshot file.
	ReadSnapshot = checkpoint.Read
	// LatestSnapshot finds the newest snapshot file for a population id.
	LatestSnapshot = checkpoint.Latest
	// ErrCorruptSnapshot wraps every decode failure caused by a damaged or
	// truncated snapshot.
	ErrCorruptSnapshot = checkpoint.ErrCorrupt
)

// Serving: the long-run daemon layer (cmd/sawd) that hosts populations
// behind HTTP — tick cadence, stimulus ingest, explanations, interval and
// shutdown checkpointing.
type (
	// Server hosts live populations; see internal/serve.
	Server = serve.Server
	// ServeOptions configures a Server.
	ServeOptions = serve.Options
	// ServeWorkload is a named, rebuildable population configuration.
	ServeWorkload = serve.Workload
	// PopulationSpec names one population a Server should host.
	PopulationSpec = serve.Spec
	// PopulationStatus is a hosted population's live counters.
	PopulationStatus = serve.Status
)

// NewServer builds a population-hosting service.
var NewServer = serve.New

// MAPEK is the classic autonomic-computing baseline loop.
type MAPEK = core.MAPEK

// Rule is a MAPE-K design-time policy rule.
type Rule = core.Rule

// NewMAPEK builds a MAPE-K loop.
var NewMAPEK = core.NewMAPEK

// Knowledge store types.
type (
	// Store is the agent's self-model registry. It has one owner at a
	// time and no locks; see DESIGN.md "Knowledge-store concurrency".
	Store = knowledge.Store
	// Entry is one model in the store.
	Entry = knowledge.Entry
	// Key is a dense handle for a model name interned in one Store
	// (Store.Intern): the hash-free hot path for per-tick model access.
	// See DESIGN.md "Hot-path performance".
	Key = knowledge.Key
)

// NewStore builds a knowledge store.
var NewStore = knowledge.NewStore

// Goal types.
type (
	// GoalSet is a named collection of objectives.
	GoalSet = goals.Set
	// Objective is one stakeholder concern.
	Objective = goals.Objective
	// Switcher holds the active goal set with scheduled run-time switches.
	Switcher = goals.Switcher
	// Direction says whether larger or smaller is better.
	Direction = goals.Direction
)

// Objective directions.
const (
	Maximize = goals.Maximize
	Minimize = goals.Minimize
)

// NewGoalSet builds a goal set.
func NewGoalSet(name string, objectives ...Objective) *GoalSet {
	return goals.NewSet(name, objectives...)
}

// NewSwitcher builds a goal switcher.
var NewSwitcher = goals.NewSwitcher
