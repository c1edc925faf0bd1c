package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/core"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// Workload is a named, rebuildable population configuration. Build must be
// a pure function of its arguments: resuming runs it again in a fresh
// process and relies on getting the identical Config (same goal schedules,
// same sensors, mutable state confined to the checkpointable components).
type Workload struct {
	Name  string
	Build func(agents, shards int, seed int64, pool *runner.Pool) population.Config
}

// Spec describes one population to host.
type Spec struct {
	ID       string
	Workload string
	Agents   int
	Shards   int
	Seed     int64
}

// Options configures a Server.
type Options struct {
	// Pool executes every population's shard fan-out; nil steps inline.
	Pool *runner.Pool
	// Dir is the checkpoint directory; empty disables persistence (Add
	// still works, Checkpoint and Resume fail).
	Dir string
	// CheckpointEvery checkpoints a population every that-many ticks as it
	// advances (0 = only explicit and shutdown checkpoints).
	CheckpointEvery int
	// Keep is how many snapshot files to retain per population when
	// auto-checkpointing (default 3; the newest is never pruned).
	Keep int
	// Workloads is the registry of population builders, keyed by
	// Workload.Name.
	Workloads []Workload
	// NewEngine, when non-nil, overrides how a fresh population becomes an
	// engine — the seam cmd/sawd uses to host populations on a cluster
	// (internal/cluster) instead of in-process. cfg is the workload's
	// built config for spec.
	NewEngine func(spec Spec, cfg population.Config) (*population.Engine, error)
	// RestoreEngine is NewEngine's resume counterpart: it must rebuild the
	// engine and overlay snap (in-process default:
	// population.Restore(cfg, snap)).
	RestoreEngine func(spec Spec, cfg population.Config, snap *population.Snapshot) (*population.Engine, error)
	// Registry receives every metric the server and its populations emit
	// (nil: the server creates its own, so GET /metrics always works).
	// Share one registry between the server and a cluster client to get
	// engine, serve and RPC metrics in one exposition.
	Registry *obs.Registry
	// Logger is the server's structured logger (nil: slog.Default()).
	// Population and shard attributes ride on every record.
	Logger *slog.Logger
	// MailboxBudget caps each population's externally ingested stimuli
	// awaiting delivery at the next tick; a batch that would exceed it is
	// shed whole with ErrOverloaded (HTTP 429 + Retry-After). 0 means
	// adaptive: the budget is derived per population from its size and the
	// published work-proxy quantiles (see effectiveBudget). Negative
	// disables shedding entirely.
	MailboxBudget int
	// ExplainBudget caps one rendered explanation in bytes; oversized
	// renderings are cut at a line boundary with an explicit truncation
	// marker. 0 means the default (64 KiB); negative disables the cap.
	ExplainBudget int

	// cluster is set by UseCluster: the admin-plane handle (shared client
	// plus every hosted population's transport) behind the /cluster HTTP
	// surface. nil means populations are hosted in-process and the
	// /cluster routes answer 400.
	cluster *clusterCtl
}

// ErrHost marks failures on the service's side (checkpoint I/O, engine
// faults) as opposed to caller mistakes (unknown population, bad agent
// index). The HTTP layer maps ErrHost to 500 and everything else to 400.
var ErrHost = errors.New("host-side failure")

// hosted is one live population and its durability bookkeeping. h.mu
// serialises everything that drives the engine (Advance, ingest,
// checkpoint, explain rendering); the read plane — vs, explain cache,
// ingested — is deliberately outside it so reads never contend with ticks.
type hosted struct {
	mu        sync.Mutex
	spec      Spec
	eng       *population.Engine
	pm        popMetrics
	lastCkpt  int    // tick of the most recent checkpoint
	lastPath  string // file it was written to
	pruneErrs int    // prune failures after otherwise-successful checkpoints
	lastPrune string // most recent prune failure, for Status

	ingested atomic.Int64  // external stimuli accepted over the population's life
	vs       viewState     // the published immutable view (see view.go)
	explain  *explainCache // rendered explanations of the current tick
}

// popMetrics is one hosted population's serve-plane instruments (the
// engine's own plane is population.Metrics, attached via Config.Metrics).
type popMetrics struct {
	ingestBatch *obs.Histogram // accepted batch sizes
	queued      *obs.Gauge     // stimuli ingested but not yet delivered
	ckptSecs    *obs.Histogram // full checkpoint durations (snapshot+encode+write)
	pruneFails  *obs.Counter   // see checkpointLocked: the one prune-failure path

	// The read/backpressure plane (PR 9).
	shed            *obs.Counter // stimuli rejected by the mailbox budget
	viewReads       *obs.Counter // status reads served from the published view
	readsDuringTick *obs.Counter // of those, reads that landed while a tick was in flight
	explainHits     *obs.Counter // explains served from the LRU, no lock, no render
	explainRenders  *obs.Counter // explains that took the population lock and rendered
}

func newPopMetrics(reg *obs.Registry, pop string) popMetrics {
	p := obs.L("pop", pop)
	return popMetrics{
		ingestBatch: reg.Histogram("sacs_serve_ingest_batch_size",
			"stimuli per accepted ingest batch", 1, obs.SizeBounds(), p),
		queued: reg.Gauge("sacs_serve_stimuli_queued",
			"externally ingested stimuli awaiting delivery at the next tick", p),
		ckptSecs: reg.Histogram("sacs_serve_checkpoint_seconds",
			"checkpoint duration (snapshot, encode, write)", obs.Seconds, obs.DurationBounds(), p),
		pruneFails: reg.Counter("sacs_serve_prune_failures_total",
			"prune failures after otherwise-successful checkpoints", p),
		shed: reg.Counter("sacs_serve_shed_total",
			"stimuli shed by the mailbox budget (whole batches, 429 to the caller)", p),
		viewReads: reg.Counter("sacs_serve_view_reads_total",
			"status reads served lock-free from the published view", p),
		readsDuringTick: reg.Counter("sacs_serve_view_reads_during_tick_total",
			"view reads served while a tick was in flight (proof reads never block on Advance)", p),
		explainHits: reg.Counter("sacs_serve_explain_cache_hits_total",
			"explains served from the per-tick LRU without rendering", p),
		explainRenders: reg.Counter("sacs_serve_explain_renders_total",
			"explains rendered under the population lock (at most one per agent per tick)", p),
	}
}

// Server hosts populations. Create with New, add or resume populations,
// then serve Handler over HTTP and/or drive Run for wall-clock ticking.
type Server struct {
	opts      Options
	workloads map[string]Workload
	started   time.Time
	reg       *obs.Registry
	log       *slog.Logger

	mu       sync.RWMutex
	pops     map[string]*hosted
	reserved map[string]struct{} // ids being added/resumed right now

	// nPops mirrors len(pops) so GET /healthz never touches s.mu: a
	// liveness probe must answer even while an Add/Resume holds the write
	// lock building an engine over a slow cluster.
	nPops atomic.Int64

	// prune is checkpoint.Prune behind a seam so tests can inject prune
	// failures that file permissions cannot simulate when running as root.
	prune func(dir, id string, keep int) (int, error)
}

// New builds a Server. Workload names must be unique.
func New(opts Options) (*Server, error) {
	if opts.Keep <= 0 {
		opts.Keep = 3
	}
	s := &Server{
		opts:      opts,
		workloads: make(map[string]Workload, len(opts.Workloads)),
		started:   time.Now(),
		reg:       opts.Registry,
		log:       opts.Logger,
		pops:      make(map[string]*hosted),
		reserved:  make(map[string]struct{}),
		prune:     checkpoint.Prune,
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.reg.GaugeFunc("sacs_serve_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(s.started).Seconds() })
	for _, w := range opts.Workloads {
		if w.Name == "" || w.Build == nil {
			return nil, fmt.Errorf("serve: workload with empty name or nil builder")
		}
		if _, dup := s.workloads[w.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate workload %q", w.Name)
		}
		s.workloads[w.Name] = w
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
		// A crash mid-checkpoint leaves a temp file behind; clean orphans
		// up front so interrupted runs cannot leak disk space forever.
		if _, err := checkpoint.RemoveTemp(opts.Dir); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir cleanup: %w", err)
		}
	}
	return s, nil
}

// Registry exposes the server's metric registry, so callers (cmd/sawd, the
// facade) can render it or register their own series next to the server's.
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) build(spec Spec) (population.Config, error) {
	w, ok := s.workloads[spec.Workload]
	if !ok {
		return population.Config{}, fmt.Errorf("serve: unknown workload %q", spec.Workload)
	}
	if spec.Agents <= 0 || spec.ID == "" {
		return population.Config{}, fmt.Errorf("serve: spec needs an id and a positive agent count")
	}
	cfg := w.Build(spec.Agents, spec.Shards, spec.Seed, s.opts.Pool)
	// Every hosted engine gets the observability plane, labelled by
	// population id; the config flows through NewEngine/RestoreEngine, so
	// cluster-hosted coordinator engines are instrumented identically.
	cfg.Metrics = population.NewMetrics(s.reg, spec.ID)
	return cfg, nil
}

// reserve claims a population id before any engine or transport is built.
// The claim matters beyond a tidy error: building a cluster engine for an
// id sends msgInit to every worker, which would replace a live
// population's worker state — a duplicate must be rejected before a single
// byte reaches a worker. Callers release the claim with unreserve; a
// successful register consumes it.
func (s *Server) reserve(id string) error {
	// Checkpoint files are named after the id inside Options.Dir, so an id
	// must be one plain file-name element: a separator, "." or ".." would
	// write them elsewhere, and the next start would not find them.
	if id == "." || id == ".." || strings.ContainsAny(id, `/\`) {
		return fmt.Errorf("serve: population id %q is not a single file-name element", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pops[id]; dup {
		return fmt.Errorf("serve: population %q already hosted", id)
	}
	if _, dup := s.reserved[id]; dup {
		return fmt.Errorf("serve: population %q is already being added", id)
	}
	s.reserved[id] = struct{}{}
	return nil
}

func (s *Server) unreserve(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.reserved, id)
}

// register publishes a fully initialised hosted population under the
// caller's reservation; h must not be mutated by the caller afterwards
// except under h.mu. h must already carry a published view (readers load
// it unconditionally).
func (s *Server) register(h *hosted) {
	s.reg.GaugeFunc("sacs_serve_view_age_seconds",
		"seconds since the population's read view was last published",
		h.vs.ageSeconds, obs.L("pop", h.spec.ID))
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.reserved, h.spec.ID)
	s.pops[h.spec.ID] = h
	s.nPops.Store(int64(len(s.pops)))
}

// explainCacheSize is the per-population LRU capacity for rendered
// explanations, keyed (agent, tick) and invalidated by the tick-barrier
// view swap.
const explainCacheSize = 256

// defaultExplainBudget caps one rendered explanation when
// Options.ExplainBudget is zero.
const defaultExplainBudget = 64 << 10

// newHosted builds the hosted wrapper for a freshly built or restored
// engine; the caller publishes a view and registers it. The queued gauge is
// the population's one pending-ingest count — admission reads it — so it
// starts at zero even when re-attaching to a series a previous host left
// non-zero: mail restored from a snapshot was admitted when first accepted
// and is never counted again.
func (s *Server) newHosted(spec Spec, eng *population.Engine) *hosted {
	h := &hosted{spec: spec, eng: eng, pm: newPopMetrics(s.reg, spec.ID), lastCkpt: eng.Ticks(),
		explain: newExplainCache(explainCacheSize)}
	h.pm.queued.Set(0)
	return h
}

// Add builds a fresh population from spec and hosts it. When snapshots for
// spec.ID already exist in the checkpoint directory, Add refuses: file
// names carry the tick, so a fresh run starting at tick 0 would be
// silently shadowed by the abandoned run's higher-tick files on the next
// resume (and pruned first). The caller must either Resume the population
// or delete its snapshot files before starting it fresh.
func (s *Server) Add(spec Spec) error {
	cfg, err := s.build(spec)
	if err != nil {
		return err
	}
	if err := s.reserve(spec.ID); err != nil {
		return err
	}
	registered := false
	defer func() {
		if !registered {
			s.unreserve(spec.ID)
		}
	}()
	if s.opts.Dir != "" {
		if latest, err := checkpoint.Latest(s.opts.Dir, spec.ID); err == nil {
			return fmt.Errorf("serve: population %q has existing snapshots in %s (latest %s): "+
				"resume it, or remove its snapshot files to start fresh", spec.ID, s.opts.Dir, latest)
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	var eng *population.Engine
	if s.opts.NewEngine != nil {
		if eng, err = s.opts.NewEngine(spec, cfg); err != nil {
			return err
		}
	} else {
		eng = population.New(cfg)
	}
	h := s.newHosted(spec, eng)
	s.publishLocked(h) // h is still private to this goroutine; no lock needed
	s.register(h)
	registered = true
	s.log.Info("serve: hosting population", "pop", spec.ID, "workload", spec.Workload,
		"agents", spec.Agents, "shards", eng.Shards(), "seed", spec.Seed)
	return nil
}

// Resume hosts the population whose latest checkpoint for spec.ID sits in
// Options.Dir, validating that the snapshot's recorded workload and shape
// match spec. The restored engine continues byte-identically to the run
// that wrote the snapshot.
func (s *Server) Resume(spec Spec) error {
	if s.opts.Dir == "" {
		return errors.New("serve: resume requires a checkpoint directory")
	}
	if err := s.reserve(spec.ID); err != nil {
		return err
	}
	registered := false
	defer func() {
		if !registered {
			s.unreserve(spec.ID)
		}
	}()
	path, err := checkpoint.Latest(s.opts.Dir, spec.ID)
	if err != nil {
		return err
	}
	snap, meta, err := checkpoint.Read(path)
	if err != nil {
		return err
	}
	if got := meta["workload"]; got != spec.Workload {
		return fmt.Errorf("serve: snapshot %s was written by workload %q, spec says %q", path, got, spec.Workload)
	}
	cfg, err := s.build(spec)
	if err != nil {
		return err
	}
	var eng *population.Engine
	if s.opts.RestoreEngine != nil {
		eng, err = s.opts.RestoreEngine(spec, cfg, snap)
	} else {
		eng, err = population.Restore(cfg, snap)
	}
	if err != nil {
		return err
	}
	h := s.newHosted(spec, eng)
	h.lastPath = path
	if n, err := strconv.ParseInt(meta["ingested"], 10, 64); err == nil {
		h.ingested.Store(n)
	}
	s.publishLocked(h)
	s.register(h)
	registered = true
	s.log.Info("serve: resumed population", "pop", spec.ID, "workload", spec.Workload,
		"tick", eng.Ticks(), "snapshot", path)
	return nil
}

// AddOrResume resumes spec.ID when a checkpoint exists for it, and builds
// it fresh otherwise. resumed reports which happened.
func (s *Server) AddOrResume(spec Spec) (resumed bool, err error) {
	if s.opts.Dir != "" {
		if _, err := checkpoint.Latest(s.opts.Dir, spec.ID); err == nil {
			return true, s.Resume(spec)
		} else if !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
	}
	return false, s.Add(spec)
}

func (s *Server) hosted(id string) (*hosted, error) {
	s.mu.RLock()
	h := s.pops[id]
	s.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("serve: no population %q", id)
	}
	return h, nil
}

// IDs lists hosted population ids, sorted.
func (s *Server) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.pops))
	for id := range s.pops {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Advance ticks population id n times (n >= 1), honouring the automatic
// checkpoint interval along the way, and returns the stats of the last
// tick.
func (s *Server) Advance(id string, n int) (population.TickStats, error) {
	h, err := s.hosted(id)
	if err != nil {
		return population.TickStats{}, err
	}
	if n < 1 {
		return population.TickStats{}, fmt.Errorf("serve: advance needs n >= 1, got %d", n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// The ticking flag is observability for the lock-free read plane: any
	// view read that lands while it is set completed during a tick, which
	// no read that took h.mu could ever do.
	h.vs.ticking.Store(true)
	defer h.vs.ticking.Store(false)
	var last population.TickStats
	for i := 0; i < n; i++ {
		// A tick failure is always host-side (an engine or cluster-worker
		// fault, never caller input), so it maps to 500 at the HTTP layer.
		last, err = h.eng.TickErr()
		if err != nil {
			return last, fmt.Errorf("serve: tick (%w): %w", ErrHost, err)
		}
		// Whatever was queued before this tick has now been injected.
		h.pm.queued.Set(0)
		if s.opts.Dir != "" && s.opts.CheckpointEvery > 0 &&
			h.eng.Ticks()-h.lastCkpt >= s.opts.CheckpointEvery {
			if _, err := s.checkpointLocked(h); err != nil {
				return last, fmt.Errorf("serve: interval checkpoint: %w", err)
			}
		}
		// The tick barrier: swap in the fresh immutable view. Readers see
		// tick T's state the instant tick T ends, and never anything torn.
		s.publishLocked(h)
	}
	return last, nil
}

// IngestItem is one stimulus of a batch ingest: the target agent, the
// stimulus, and whether the caller supplied an explicit timestamp (when
// false, the population's current tick is stamped at enqueue time).
type IngestItem struct {
	To      int
	Stim    core.Stimulus
	HasTime bool
}

// Ingest queues an external stimulus for agent `to` of population id; it
// is injected at the start of the population's next tick. When hasTime is
// false the stimulus is stamped with the population's current tick,
// atomically with the enqueue. It returns the tick at which delivery will
// happen.
func (s *Server) Ingest(id string, to int, stim core.Stimulus, hasTime bool) (deliverAt int, err error) {
	return s.IngestBatch(id, []IngestItem{{To: to, Stim: stim, HasTime: hasTime}})
}

// IngestBatch queues a batch of external stimuli in order, under one
// population lock and through one mailbox pass — the batch equivalent of
// Ingest, and the first step of the ROADMAP's ingest-backpressure work: a
// client with N stimuli pays one request and one lock acquisition instead
// of N. The batch is all-or-nothing: every target index is validated
// before anything is enqueued, so a bad element cannot leave a partial
// batch behind. All stimuli are delivered at the same next tick, which is
// returned.
func (s *Server) IngestBatch(id string, items []IngestItem) (deliverAt int, err error) {
	h, err := s.hosted(id)
	if err != nil {
		return 0, err
	}
	if len(items) == 0 {
		return 0, errors.New("serve: empty stimulus batch")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	agents := h.eng.Agents()
	for i := range items {
		if items[i].To < 0 || items[i].To >= agents {
			return 0, fmt.Errorf("serve: stimulus %d of %d targets out-of-range agent %d (population %d)",
				i, len(items), items[i].To, agents)
		}
	}
	// Admission control, all-or-nothing per batch: a batch that would push
	// the pending-external count past the budget is shed whole, before a
	// single stimulus reaches a mailbox — there is no dropped-then-applied
	// middle state. The caller gets 429 + Retry-After and the shed is
	// counted on both metrics planes. The pending count is the queued
	// gauge, written only under h.mu (here and at the barrier in Advance).
	if budget := s.effectiveBudget(h); budget > 0 {
		if pending := int(h.pm.queued.Value()); pending+len(items) > budget {
			h.pm.shed.Add(int64(len(items)))
			return 0, fmt.Errorf("serve: population %q has %d stimuli pending delivery "+
				"(budget %d, batch %d): %w", h.spec.ID, pending, budget, len(items), ErrOverloaded)
		}
	}
	now := float64(h.eng.Ticks())
	for i := range items {
		stim := items[i].Stim
		if !items[i].HasTime {
			stim.Time = now
		}
		if err := h.eng.Enqueue(items[i].To, stim); err != nil {
			return 0, err // unreachable after validation; kept for safety
		}
	}
	h.ingested.Add(int64(len(items)))
	h.pm.ingestBatch.Observe(int64(len(items)))
	h.pm.queued.Add(int64(len(items)))
	return h.eng.Ticks(), nil
}

// effectiveBudget is the population's mailbox budget for this instant:
// Options.MailboxBudget verbatim when fixed (negative disables shedding),
// otherwise adaptive from the published view — 4× the population size,
// tightened toward 1× as the work-proxy distribution skews (a high p99/p50
// ratio means hot agents are already behind; queueing more on top of them
// only grows latency, so backpressure engages earlier).
func (s *Server) effectiveBudget(h *hosted) int {
	if s.opts.MailboxBudget != 0 {
		if s.opts.MailboxBudget < 0 {
			return 0
		}
		return s.opts.MailboxBudget
	}
	v := h.vs.published()
	budget := 4 * v.st.Agents
	if v.st.WorkP99 > v.st.WorkP50 && v.st.WorkP50 > 0 {
		if scaled := int(float64(budget) * v.st.WorkP50 / v.st.WorkP99); scaled > v.st.Agents {
			budget = scaled
		} else {
			budget = v.st.Agents
		}
	}
	return budget
}

// RetryAfter is the whole-second Retry-After a shed caller should wait
// before re-posting to population id: about one tick interval, the time
// until the next barrier drains the mailboxes.
func (s *Server) RetryAfter(id string) int {
	h, err := s.hosted(id)
	if err != nil {
		return 1
	}
	return h.vs.retryAfterSeconds()
}

// Checkpoint snapshots population id to Options.Dir now and returns the
// file path.
func (s *Server) Checkpoint(id string) (string, error) {
	h, err := s.hosted(id)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	path, err := s.checkpointLocked(h)
	if err == nil {
		s.publishLocked(h) // readers see the new checkpoint tick/path
	}
	return path, err
}

// checkpointLocked snapshots h to disk. Failures on the way to a durable
// snapshot — exporting state, encoding, writing — are the service's fault
// and wrap ErrHost (the documented 500 contract); a missing checkpoint
// directory is a caller/configuration mistake and does not. A prune
// failure after the snapshot is safely on disk is recorded, not returned:
// durability succeeded, and aborting ticking over housekeeping would turn
// a full disk of old snapshots into an outage.
func (s *Server) checkpointLocked(h *hosted) (string, error) {
	if s.opts.Dir == "" {
		return "", errors.New("serve: no checkpoint directory configured")
	}
	start := time.Now()
	tick := h.eng.Ticks()
	path := filepath.Join(s.opts.Dir, checkpoint.FileName(h.spec.ID, tick))
	meta := map[string]string{
		"workload": h.spec.Workload,
		"id":       h.spec.ID,
		"ingested": strconv.FormatInt(h.ingested.Load(), 10),
	}
	// An in-process population streams its runs into the file as they
	// encode; any other exports first (see Engine.StreamSnapshot).
	if err := checkpoint.WriteStream(path, h.eng.StreamSnapshot, meta); err != nil {
		return "", fmt.Errorf("serve: checkpoint %q (%w): %w", h.spec.ID, ErrHost, err)
	}
	h.lastCkpt = tick
	h.lastPath = path
	h.pm.ckptSecs.ObserveDuration(time.Since(start))
	s.log.Debug("serve: checkpoint written", "pop", h.spec.ID, "tick", tick, "path", path)
	if _, err := s.prune(s.opts.Dir, h.spec.ID, s.opts.Keep); err != nil {
		// One code path records the failure in all three places — Status
		// fields, structured log, metric — so they can never disagree.
		h.pruneErrs++
		h.lastPrune = err.Error()
		h.pm.pruneFails.Inc()
		s.log.Warn("serve: prune after checkpoint failed (snapshot is durable)",
			"pop", h.spec.ID, "snapshot", path, "err", err)
	}
	return path, nil
}

// CheckpointAll snapshots every hosted population (graceful-shutdown
// path), returning the first error but attempting all.
func (s *Server) CheckpointAll() error {
	var first error
	for _, id := range s.IDs() {
		if _, err := s.Checkpoint(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Explain renders agent `agent` of population id: its self-description,
// meta report when the meta level is present, recent decision explanations
// and the knowledge-store inventory — the paper's self-explanation, served
// over HTTP.
func (s *Server) Explain(id string, agent int) (string, error) {
	text, _, err := s.ExplainAt(id, agent)
	return text, err
}

// ExplainAt is Explain plus the tick the explanation describes (echoed to
// HTTP callers as X-Sacs-View-Tick, making staleness explicit).
//
// The fast path is lock-free: the agent index is validated against the
// published view — for cluster-hosted populations that means an
// out-of-range id is a 404 decided on the coordinator, no worker
// round-trip — and a cached rendering for (agent, view tick) is returned
// without touching h.mu. A miss takes the population lock, renders once
// (bounded by Options.ExplainBudget) and caches; the barrier's tick
// advance invalidates the cache wholesale, so repeated dashboard polls
// cost one render per agent per tick.
func (s *Server) ExplainAt(id string, agent int) (string, int, error) {
	h, err := s.hosted(id)
	if err != nil {
		return "", 0, err
	}
	v := h.vs.published()
	if agent < 0 || agent >= v.st.Agents {
		return "", v.st.ViewTick, fmt.Errorf("serve: agent %d out of range (population %d): %w",
			agent, v.st.Agents, ErrNotFound)
	}
	if text, ok := h.explain.get(agent, v.st.ViewTick); ok {
		h.pm.explainHits.Inc()
		return text, v.st.ViewTick, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Under the lock the engine may be ahead of the view we checked; key
	// the rendering by the engine's actual tick so it stays valid for the
	// whole next view generation.
	tick := h.eng.Ticks()
	if text, ok := h.explain.get(agent, tick); ok {
		h.pm.explainHits.Inc()
		return text, tick, nil
	}
	// The rendering lives in core.ExplainAgent and, for cluster-hosted
	// populations, runs on the worker that owns the agent — one spelling
	// of an explanation everywhere. The agent index was validated above,
	// so any engine failure here is host-side (a cluster-worker fault).
	text, err := h.eng.Explain(agent)
	if err != nil {
		return "", tick, fmt.Errorf("serve: explain (%w): %w", ErrHost, err)
	}
	h.pm.explainRenders.Inc()
	text = truncateExplain(text, s.explainBudget())
	h.explain.put(agent, tick, text)
	return text, tick, nil
}

func (s *Server) explainBudget() int {
	if s.opts.ExplainBudget != 0 {
		if s.opts.ExplainBudget < 0 {
			return 0 // uncapped
		}
		return s.opts.ExplainBudget
	}
	return defaultExplainBudget
}

// Status is one population's live counters, JSON-shaped. Timing metrics
// are not copied in: GET /metrics and /debug/vars render them.
type Status struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Agents   int    `json:"agents"`
	Shards   int    `json:"shards"`
	Seed     int64  `json:"seed"`
	Tick     int    `json:"tick"`
	// ViewTick is the tick of the published view this status was read
	// from: equal to Tick on the lock-free path (views swap at barriers),
	// it makes the read plane's staleness contract explicit and testable.
	ViewTick  int   `json:"view_tick"`
	Steps     int64 `json:"steps"`
	Messages  int64 `json:"messages"`
	Delivered int64 `json:"delivered"`
	Actions   int64 `json:"actions"`
	// Ingested and Queued move between barriers (they are atomics overlaid
	// at read time), so an accepted ingest is visible to the next Status
	// without waiting a tick.
	Ingested  int64   `json:"ingested"`
	Queued    int64   `json:"queued"`
	ModelMean float64 `json:"model_mean"`
	WorkP50   float64 `json:"work_p50"`
	WorkP99   float64 `json:"work_p99"`
	LastCkpt  int     `json:"last_checkpoint_tick"`
	CkptPath  string  `json:"last_checkpoint_path,omitempty"`
	// PruneErrs counts prune failures after otherwise-successful
	// checkpoints (ticking continues; the operator should reclaim disk).
	PruneErrs int    `json:"prune_failures,omitempty"`
	LastPrune string `json:"last_prune_error,omitempty"`
}

// Status reports population id's live counters. The read is lock-free: it
// loads the view published at the last tick barrier and overlays the two
// between-barrier atomics (Ingested, Queued). It never takes h.mu, so a
// status poll can neither block nor be blocked by Advance.
func (s *Server) Status(id string) (Status, error) {
	h, err := s.hosted(id)
	if err != nil {
		return Status{}, err
	}
	h.pm.viewReads.Inc()
	if h.vs.ticking.Load() {
		h.pm.readsDuringTick.Inc()
	}
	st := h.vs.published().st
	st.Ingested = h.ingested.Load()
	st.Queued = h.pm.queued.Value()
	return st, nil
}

// Run advances every hosted population by one tick each interval until ctx
// is cancelled, then checkpoints everything and returns. interval <= 0
// means on-demand only: Run blocks until cancellation and still performs
// the shutdown checkpoint — callers get durability on SIGTERM for free.
//
// A tick failure ends the loop (the population may be mid-divergence;
// blindly continuing would compound it), but Run still checkpoints every
// population it can before returning, so the caller never loses durable
// state to the error that stopped ticking. The returned error is never nil
// on that path — callers that see Run finish before their own shutdown
// know ticking has stopped.
func (s *Server) Run(ctx context.Context, interval time.Duration) error {
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return s.CheckpointAll()
			case <-t.C:
				for _, id := range s.IDs() {
					if _, err := s.Advance(id, 1); err != nil {
						err = fmt.Errorf("serve: tick %s: %w", id, err)
						if ckErr := s.CheckpointAll(); ckErr != nil {
							err = errors.Join(err, ckErr)
						}
						return err
					}
				}
			}
		}
	}
	<-ctx.Done()
	return s.CheckpointAll()
}
