package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// MaxAgents is the largest population a worker agrees to build. An init
// frame names the shape and the worker constructs every agent of it, so
// an unchecked count would let one frame exhaust the worker's memory; the
// bound sits two orders of magnitude above the largest populations the
// benchmarks run (10k agents).
const MaxAgents = 1 << 20

// Workload is a named, rebuildable population configuration — the worker
// side of serve.Workload. Build must be a pure function of its arguments:
// the coordinator sends only (workload, agents, shards, seed) over the
// wire, and determinism across the cluster relies on every worker
// rebuilding the identical Config.
type Workload struct {
	Name  string
	Build func(agents, shards int, seed int64, pool *runner.Pool) population.Config
}

// Worker hosts shards of populations on behalf of a coordinator. Create
// with NewWorker, then Serve; one worker can host shards of any number of
// populations (keyed by population id). Since protocol v4 the shards a
// worker hosts of one population are an arbitrary set, which migrations
// grow and shrink one range at a time.
type Worker struct {
	ln        net.Listener
	pool      *runner.Pool
	workloads map[string]Workload
	log       *slog.Logger

	mu     sync.Mutex
	pops   map[string]*workerPop
	conns  map[net.Conn]struct{}
	epochs uint64 // attach-epoch counter, incremented per successful init
}

// workerPop is one hosted population: its attach epoch, the one transport
// that hosts its shard set, and the reusable tick scratch. An admitted
// worker may own no shards — a member of the placement waiting for the
// rebalancer to move some over.
type workerPop struct {
	mu      sync.Mutex
	epoch   uint64 // the attach that owns this population (split-brain guard)
	bounds  []int  // global agent partition (population.Partition)
	t       *population.LocalTransport
	runs    []span            // owned shard runs, ascending; refreshed per ownership change
	spans   []span            // the runs' agent intervals: the ids tick mail may address
	mail    [][]core.Stimulus // global-indexed scratch inboxes, owned agents only
	touched []int             // ids filled this tick, cleared after the step
	names   codec.Interner    // stimulus names and sources decoded from tick mail
}

// owned refreshes runs and spans from the transport's owned shards. Callers
// hold p.mu (or own p exclusively).
func (p *workerPop) owned() {
	p.runs = shardRuns(p.t.Owned())
	p.spans = agentSpans(p.bounds, p.runs)
}

// NewWorker wraps an existing listener (so tests and cmd/sawd can bind
// ":0" or a flag-chosen address themselves). pool steps the hosted shards;
// nil steps them inline.
func NewWorker(ln net.Listener, pool *runner.Pool, workloads []Workload) (*Worker, error) {
	w := &Worker{
		ln:        ln,
		pool:      pool,
		workloads: make(map[string]Workload, len(workloads)),
		log:       slog.Default(),
		pops:      make(map[string]*workerPop),
		conns:     make(map[net.Conn]struct{}),
	}
	for _, wl := range workloads {
		if wl.Name == "" || wl.Build == nil {
			return nil, errors.New("cluster: workload with empty name or nil builder")
		}
		if _, dup := w.workloads[wl.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate workload %q", wl.Name)
		}
		w.workloads[wl.Name] = wl
	}
	return w, nil
}

// Addr reports the listener's address (useful with ":0").
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetLogger replaces the worker's structured logger (default
// slog.Default()). Call before Serve.
func (w *Worker) SetLogger(l *slog.Logger) {
	if l != nil {
		w.log = l
	}
}

// Close stops the worker: the listener and every live coordinator
// connection are closed, so to an attached coordinator Close is
// indistinguishable from the worker process dying — which is exactly what
// tests use it for.
func (w *Worker) Close() error {
	err := w.ln.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	for c := range w.conns {
		c.Close()
	}
	w.conns = make(map[net.Conn]struct{})
	return err
}

// Serve accepts coordinator connections until Close; each connection is
// handled serially on its own goroutine (the barrier protocol is lock-step,
// so there is nothing to pipeline). It returns nil after Close.
func (w *Worker) Serve() error {
	for {
		c, err := w.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go w.handleConn(c)
	}
}

func (w *Worker) handleConn(c net.Conn) {
	w.mu.Lock()
	w.conns[c] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
		c.Close()
	}()
	r := bufio.NewReaderSize(c, 1<<16)
	bw := bufio.NewWriterSize(c, 1<<16)
	// The tick request buffer and reply encoder belong to the connection,
	// which handles one request at a time and writes each reply before it
	// reads the next request. They cannot belong to the population: two
	// connections may tick one population, and its lock is released before
	// the reply is written.
	var (
		tickBuf []byte
		reply   codec.Encoder
	)
	for {
		t, body, err := readFrame(r, &tickBuf)
		if err != nil {
			return // connection gone or garbage framing: nothing to reply to
		}
		rt, rbody := w.handle(t, body, &reply)
		if rt == msgErr {
			d := codec.NewDecoder(rbody)
			w.log.Warn("cluster: request failed",
				"remote", c.RemoteAddr().String(), "type", msgName(t), "err", d.Str())
		}
		if err := writeFrame(bw, rt, rbody); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// handle dispatches one request and never panics: a handler panic (e.g. a
// workload builder rejecting its arguments) is converted into an msgErr
// reply so the coordinator gets a diagnosable error instead of a dead
// connection. A tick reply is encoded into reply, which the caller keeps
// until the reply is written.
func (w *Worker) handle(t msgType, body []byte, reply *codec.Encoder) (rt msgType, rbody []byte) {
	defer func() {
		if r := recover(); r != nil {
			rt, rbody = errReply(fmt.Errorf("worker panic: %v", r))
		}
	}()
	switch t {
	case msgPing:
		return msgOK, nil
	case msgInit:
		return w.handleInit(body)
	case msgInstall:
		return w.handleInstall(body)
	case msgTick:
		return w.handleTick(body, reply)
	case msgExplain:
		return w.handleExplain(body)
	case msgDrop:
		return w.handleDrop(body)
	case msgDrain:
		return w.handleDrain(body)
	case msgAdopt:
		return w.handleAdopt(body)
	case msgRelease:
		return w.handleRelease(body)
	default:
		return errReply(fmt.Errorf("unknown message type %d", t))
	}
}

func errReply(err error) (msgType, []byte) {
	e := codec.NewEncoder()
	e.Str(err.Error())
	return msgErr, append([]byte(nil), e.Bytes()...)
}

// pop resolves a population and checks the caller's attach epoch. A stale
// epoch means another coordinator has re-initialised the range since this
// caller attached: its state is gone, and silently serving it would mean
// undetected divergence — the one thing the failure model forbids. The
// stale coordinator gets a loud error instead (serve maps it to 500).
func (w *Worker) pop(id []byte, epoch uint64) (*workerPop, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.pops[string(id)]
	if p == nil {
		return nil, fmt.Errorf("no population %q hosted here", id)
	}
	if p.epoch != epoch {
		return nil, fmt.Errorf("stale attach epoch %d for population %q (current %d): "+
			"another coordinator re-initialised this range", epoch, id, p.epoch)
	}
	return p, nil
}

func (w *Worker) handleInit(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	if v := d.Uvarint(); v != protocolVersion {
		return errReply(fmt.Errorf("protocol version %d not supported (worker speaks %d)", v, protocolVersion))
	}
	spec := decodeSpec(d)
	lo, hi := d.Int(), d.Int()
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad init: %w", err))
	}
	if spec.Agents <= 0 || spec.Agents > MaxAgents || spec.Shards <= 0 || spec.Shards > spec.Agents {
		return errReply(fmt.Errorf("bad init: population shape agents=%d shards=%d (at most %d agents)",
			spec.Agents, spec.Shards, MaxAgents))
	}
	// v4: lo == hi == 0 admits this worker with no shards — it joins the
	// placement and waits for the coordinator to migrate ranges over.
	if lo != 0 || hi != 0 {
		if err := population.ValidateShardRange(lo, hi, spec.Shards); err != nil {
			return errReply(fmt.Errorf("bad init: %w", err))
		}
	}
	wl, ok := w.workloads[spec.Workload]
	if !ok {
		return errReply(fmt.Errorf("unknown workload %q", spec.Workload))
	}
	cfg := wl.Build(spec.Agents, spec.Shards, spec.Seed, w.pool).Normalized()
	if cfg.Shards != spec.Shards || cfg.Agents != spec.Agents {
		return errReply(fmt.Errorf("workload %q built shape (agents=%d shards=%d), coordinator expects (agents=%d shards=%d)",
			spec.Workload, cfg.Agents, cfg.Shards, spec.Agents, spec.Shards))
	}
	p := &workerPop{
		bounds: population.Partition(spec.Agents, spec.Shards),
		t:      population.NewLocalTransport(cfg, lo, hi),
		mail:   make([][]core.Stimulus, spec.Agents),
	}
	p.owned()
	w.mu.Lock()
	defer w.mu.Unlock()
	// Re-init replaces: a restarted coordinator re-attaches to a live
	// worker by building the population fresh (and then installing state),
	// exactly as it would on a fresh worker process. The fresh epoch makes
	// any coordinator still holding the previous attach fail loudly
	// instead of silently stepping replaced state.
	w.epochs++
	p.epoch = w.epochs
	replaced := w.pops[spec.ID] != nil
	w.pops[spec.ID] = p
	w.log.Info("cluster: hosting range",
		"pop", spec.ID, "workload", spec.Workload,
		"shards_lo", lo, "shards_hi", hi,
		"epoch", p.epoch, "replaced", replaced)
	e := codec.NewEncoder()
	e.Uvarint(p.epoch)
	return msgOK, e.Bytes()
}

func (w *Worker) handleInstall(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.StrBytes()
	epoch := d.Uvarint()
	if err := d.Err(); err != nil {
		return errReply(fmt.Errorf("bad install: %w", err))
	}
	p, err := w.pop(id, epoch)
	if err != nil {
		return errReply(err)
	}
	rs := checkpoint.DecodeRange(d, p.bounds)
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad install: %w", err))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.t.Install(rs); err != nil {
		return errReply(fmt.Errorf("%w (hosting shards %v)", err, p.runs))
	}
	return msgOK, nil
}

func (w *Worker) handleTick(body []byte, e *codec.Encoder) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.StrBytes()
	epoch := d.Uvarint()
	tick := d.Int()
	if err := d.Err(); err != nil {
		return errReply(fmt.Errorf("bad tick: %w", err))
	}
	p, err := w.pop(id, epoch)
	if err != nil {
		return errReply(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Clear the scratch inboxes on every exit — a failed decode has
	// already filled some of them, and leaked mail would be injected
	// twice if the population is ever ticked again.
	defer p.clearMail()
	p.touched, err = decodeMailInto(d, p.mail, p.spans, p.touched[:0], &p.names)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return errReply(fmt.Errorf("bad tick mail: %w", err))
	}
	// One step over the whole owned set: its exchanges come back in shard
	// order, so the reply is index-sorted however migration carved the
	// ownership up.
	outs, err := p.t.Step(tick, p.mail)
	if err != nil {
		return errReply(err)
	}
	e.Reset()
	e.Uvarint(uint64(len(outs)))
	for _, o := range outs {
		encodeExchange(e, o)
	}
	return msgTickOK, e.Bytes()
}

// maxMailScratchCap mirrors the engine-side mailbox retention policy: a
// scratch inbox one burst grew huge is released to the garbage collector
// instead of staying pinned at peak capacity for the worker's lifetime.
const maxMailScratchCap = 256

// clearMail empties every scratch inbox this tick touched, dropping
// over-grown slices entirely. Callers hold p.mu.
func (p *workerPop) clearMail() {
	for _, id := range p.touched {
		if cap(p.mail[id]) > maxMailScratchCap {
			p.mail[id] = nil
		} else {
			p.mail[id] = p.mail[id][:0]
		}
	}
}

// handleDrain copies out the state of shards [lo, hi), which must all be
// hosted here: one run of a coordinator's export, or the source half of a
// live migration. It is read-only — the source stays authoritative until
// the coordinator, having confirmed the destination's adopt, sends
// msgRelease — so a migration that fails at any later step leaves this
// worker's state exactly as it was.
func (w *Worker) handleDrain(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.StrBytes()
	epoch := d.Uvarint()
	lo, hi := d.Int(), d.Int()
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad drain: %w", err))
	}
	p, err := w.pop(id, epoch)
	if err != nil {
		return errReply(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rs, err := p.t.ExportRange(lo, hi)
	if err != nil {
		return errReply(fmt.Errorf("drain: %w (hosting shards %v)", err, p.runs))
	}
	e := codec.NewEncoder()
	checkpoint.AppendRange(e, rs)
	return msgRange, e.Bytes()
}

// handleAdopt adds a migrated (or re-assigned) range to the shards this
// worker hosts. Only the adopted shards' agents are built; the hosted ones
// step on untouched. Nothing is committed until construction and state
// transfer succeed, so a failed adopt leaves the worker exactly as it was
// (the coordinator can roll the migration back with the source still
// authoritative).
func (w *Worker) handleAdopt(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.StrBytes()
	epoch := d.Uvarint()
	if err := d.Err(); err != nil {
		return errReply(fmt.Errorf("bad adopt: %w", err))
	}
	p, err := w.pop(id, epoch)
	if err != nil {
		return errReply(err)
	}
	rs := checkpoint.DecodeRange(d, p.bounds)
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad adopt: %w", err))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.t.Adopt(rs); err != nil {
		return errReply(fmt.Errorf("%w (hosting shards %v)", err, p.runs))
	}
	p.owned()
	w.log.Info("cluster: adopted range",
		"pop", string(id), "shards_lo", rs.LoShard, "shards_hi", rs.HiShard, "hosting", p.runs)
	return msgOK, nil
}

// handleRelease forgets shards [lo, hi): the source-side commit of a
// migration (the destination has adopted; serving these shards again would
// be split ownership), or the destination-side rollback of an adopt whose
// migration later failed. Only the released shards' agents are dropped.
func (w *Worker) handleRelease(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.StrBytes()
	epoch := d.Uvarint()
	lo, hi := d.Int(), d.Int()
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad release: %w", err))
	}
	p, err := w.pop(id, epoch)
	if err != nil {
		return errReply(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.t.Release(lo, hi); err != nil {
		return errReply(fmt.Errorf("%w (hosting shards %v)", err, p.runs))
	}
	p.owned()
	w.log.Info("cluster: released range",
		"pop", string(id), "shards_lo", lo, "shards_hi", hi, "hosting", p.runs)
	return msgOK, nil
}

func (w *Worker) handleExplain(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.StrBytes()
	epoch := d.Uvarint()
	agent := d.Int()
	now := d.F64()
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad explain: %w", err))
	}
	p, err := w.pop(id, epoch)
	if err != nil {
		return errReply(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	text, err := p.t.Explain(agent, now)
	if err != nil {
		return errReply(fmt.Errorf("%w (hosting shards %v)", err, p.runs))
	}
	e := codec.NewEncoder()
	e.Str(text)
	return msgText, e.Bytes()
}

func (w *Worker) handleDrop(body []byte) (msgType, []byte) {
	d := codec.NewDecoder(body)
	id := d.Str()
	epoch := d.Uvarint()
	if err := d.Finish(); err != nil {
		return errReply(fmt.Errorf("bad drop: %w", err))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Only the attach that owns the range may drop it; a stale
	// coordinator's shutdown must not tear down its successor's state.
	if p := w.pops[id]; p != nil && p.epoch == epoch {
		delete(w.pops, id)
		w.log.Info("cluster: dropped range", "pop", id, "epoch", epoch)
	}
	return msgOK, nil
}
