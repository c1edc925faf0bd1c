package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/obs"
	"sacs/internal/population"
)

// conn is one coordinator→worker connection. The barrier protocol is
// strictly request/reply, so a mutex around each round trip is the whole
// concurrency story; distinct workers run their round trips in parallel on
// distinct conns.
type conn struct {
	addr        string
	dialRetries int64 // dial attempts beyond the first (see Client.Instrument)
	m           *connMetrics
	mu          sync.Mutex
	timeout     time.Duration // per-round-trip deadline; 0 = none (see Client.SetRPCTimeout)
	c           net.Conn
	r           *bufio.Reader
	w           *bufio.Writer
}

func newConn(addr string, nc net.Conn, retries int64) *conn {
	return &conn{
		addr: addr, dialRetries: retries, c: nc,
		r: bufio.NewReaderSize(nc, 1<<16),
		w: bufio.NewWriterSize(nc, 1<<16),
	}
}

// reset swaps in a freshly dialled connection (see Client.Redial). Any
// bytes buffered from the old connection — e.g. a duplicated or late reply
// a fault left behind — die with it, which is what makes redialling a safe
// recovery: the protocol state machine restarts clean, and the attach
// epoch riding in every request re-establishes identity.
func (c *conn) reset(nc net.Conn) {
	c.mu.Lock()
	old := c.c
	c.c = nc
	c.r = bufio.NewReaderSize(nc, 1<<16)
	c.w = bufio.NewWriterSize(nc, 1<<16)
	c.mu.Unlock()
	old.Close()
}

// roundTrip sends one request and reads its reply; scratch, when set, is
// the caller's tick-reply buffer (see readFrame).
func (c *conn) roundTrip(t msgType, body []byte, scratch *[]byte) (msgType, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var start time.Time
	if c.m != nil {
		start = time.Now()
		c.m.inflight.Add(1)
		defer c.m.inflight.Add(-1)
	}
	if c.timeout > 0 {
		_ = c.c.SetDeadline(time.Now().Add(c.timeout))
		defer func() { _ = c.c.SetDeadline(time.Time{}) }()
	}
	if err := writeFrame(c.w, t, body); err != nil {
		return 0, nil, fmt.Errorf("cluster: worker %s: %w", c.addr, err)
	}
	if err := c.w.Flush(); err != nil {
		return 0, nil, fmt.Errorf("cluster: worker %s: %w", c.addr, err)
	}
	rt, rbody, err := readFrame(c.r, scratch)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: worker %s: %w", c.addr, err)
	}
	if c.m != nil {
		// +5: the 4-byte length header and type byte of each frame.
		c.m.bytesOut.Add(int64(len(body)) + 5)
		c.m.bytesIn.Add(int64(len(rbody)) + 5)
		if h := c.m.rpc[t]; h != nil {
			h.ObserveDuration(time.Since(start))
		}
	}
	return rt, rbody, nil
}

// call is roundTrip with msgErr unwrapped and the reply type checked.
func (c *conn) call(t msgType, body []byte, want msgType) ([]byte, error) {
	return c.callInto(nil, t, body, want)
}

// callInto is call reading a tick reply into *scratch (see readFrame).
func (c *conn) callInto(scratch *[]byte, t msgType, body []byte, want msgType) ([]byte, error) {
	rt, rbody, err := c.roundTrip(t, body, scratch)
	if err != nil {
		return nil, err
	}
	if rt == msgErr {
		d := codec.NewDecoder(rbody)
		return nil, fmt.Errorf("cluster: worker %s: %s", c.addr, d.Str())
	}
	if rt != want {
		return nil, fmt.Errorf("cluster: worker %s: reply type %d, want %d", c.addr, rt, want)
	}
	return rbody, nil
}

// Client is a coordinator's view of an ordered worker list. The order is
// part of the deterministic contract: a fresh transport assigns shard
// ranges by contiguous partition in list order, so the same list always
// yields the same initial placement. The list can grow — AddWorker appends
// a dialled worker, and transports fold it into a live placement with
// Transport.AdmitWorker — but indices never shift or disappear: a dead
// worker keeps its slot (marked via Transport.DetachWorker) and can be
// re-connected in place with Redial.
type Client struct {
	reg *obs.Registry // set by Instrument; nil = uninstrumented

	mu    sync.RWMutex
	conns []*conn
}

// Workers reports how many workers the client is attached to.
func (cl *Client) Workers() int {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return len(cl.conns)
}

// Addrs lists the workers' addresses in slot order. The index of an
// address is the worker index every placement operation (AdmitWorker,
// Migrate, Assign) speaks, so admin layers can translate operator-supplied
// addresses to slots — and detect that an address is already on the list,
// where Redial (not AddWorker) is the reconnect path.
func (cl *Client) Addrs() []string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	out := make([]string, len(cl.conns))
	for i, c := range cl.conns {
		out[i] = c.addr
	}
	return out
}

// conn returns worker wi's connection. Slots are append-only, so the
// returned pointer stays valid for the client's lifetime.
func (cl *Client) conn(wi int) *conn {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.conns[wi]
}

func (cl *Client) snapshotConns() []*conn {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return append([]*conn(nil), cl.conns...)
}

// AddWorker dials one more worker (retrying with the same backoff schedule
// as Dial until wait elapses), verifies it answers a ping, and appends it
// to the worker list, returning its index. The new worker joins no
// placement by itself: call Transport.AdmitWorker on each population that
// should be able to migrate shards onto it.
func (cl *Client) AddWorker(addr string, wait time.Duration) (int, error) {
	nc, retries, err := dialWorker(addr, wait)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial worker %s: %w", addr, err)
	}
	c := newConn(addr, nc, retries)
	if _, err := c.call(msgPing, nil, msgOK); err != nil {
		nc.Close()
		return 0, err
	}
	if cl.reg != nil {
		cl.instrumentConn(c)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.conns = append(cl.conns, c)
	return len(cl.conns) - 1, nil
}

// Redial replaces worker wi's connection with a freshly dialled one — the
// recovery step after an RPC timeout, an injected fault, or a worker
// process restart at the same address. Buffered bytes from the old
// connection are discarded with it; the attach epochs riding in every
// request keep population identity intact across the swap.
func (cl *Client) Redial(wi int, wait time.Duration) error {
	if wi < 0 || wi >= cl.Workers() {
		return fmt.Errorf("cluster: redial worker %d of %d", wi, cl.Workers())
	}
	c := cl.conn(wi)
	nc, retries, err := dialWorker(c.addr, wait)
	if err != nil {
		return fmt.Errorf("cluster: redial worker %s: %w", c.addr, err)
	}
	c.reset(nc)
	if c.m != nil {
		c.m.dialRetries.Add(retries)
	}
	return nil
}

// SetRPCTimeout bounds every round trip on every current connection: a
// worker that accepts a request and never replies (hung, partitioned, or a
// fault harness swallowing frames) turns into a deadline error instead of
// a coordinator blocked forever. After a timeout the connection's framing
// state is undefined — Redial before reusing the worker. 0 restores
// blocking behaviour.
func (cl *Client) SetRPCTimeout(d time.Duration) {
	for _, c := range cl.snapshotConns() {
		c.mu.Lock()
		c.timeout = d
		c.mu.Unlock()
	}
}

// Close closes every worker connection.
func (cl *Client) Close() error {
	var first error
	for _, c := range cl.snapshotConns() {
		if err := c.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Transport implements population.Transport over a Client: the data plane
// of one clustered population. Create with NewTransport (fresh agents on
// every worker) and hand it to population.NewWithTransport or
// population.RestoreWithTransport.
//
// Shard placement is dynamic: the shard→worker map starts as a contiguous
// partition over the client's workers and changes through Migrate (live
// barrier migration), Assign (re-homing a dead worker's shards onto a
// re-admitted one) and Rebalance (a batch of migrations chosen by the
// cluster's one placement rule).
// All Transport methods — Step and the placement operations alike — must
// be called from the engine's barrier discipline: one goroutine, never
// during a tick. That is exactly the serve layer's per-population lock.
type Transport struct {
	client *Client
	spec   Spec

	abounds []int       // agent partition across shards (population.Partition)
	owner   []int       // shard → worker index
	dead    []bool      // workers detached from this placement (index-stable)
	epochs  []uint64    // each worker's attach epoch for this population; 0 = never admitted
	wires   []*tickWire // each worker slot's shards and tick scratch, index-aligned with epochs
	outs    []*population.ShardExchange

	// costs is the coordinator's view of every shard's step cost, fed
	// from the StepNanos in tick replies. Rebalance places shards by it,
	// and it backs the gauges below when the client is instrumented.
	// Observation-only.
	costs *population.CostModel

	// Instrumentation (nil when the client is uninstrumented): per-shard
	// cost gauges, per-worker shard-count and load gauges, and the
	// migration counters.
	costGauge    []*obs.Gauge
	workerShards []*obs.Gauge
	workerCost   []*obs.Gauge
	migrations   *obs.Counter
	readmissions *obs.Counter
}

// tickWire is one worker slot of a transport: the shards the owner map
// gives it, which placed refreshes, and what ticking it reuses from tick to
// tick — the request encoder, the reply buffer and the names decoded from
// replies. The buffers belong to the transport, not to the conn: the
// populations that share a conn tick concurrently, and a conn-owned reply
// buffer would be overwritten while another population still decodes from
// it.
type tickWire struct {
	shards []int  // owned shards, ascending
	spans  []span //sacslint:allow snapstate placement, not state: the agent intervals whose mail a tick request carries
	req    codec.Encoder
	reply  []byte
	names  codec.Interner
	err    error // the last tick's outcome
}

// popHeader starts a request body with the population id and the attach
// epoch worker wi handed out at init.
func (t *Transport) popHeader(wi int) *codec.Encoder {
	e := codec.NewEncoder()
	e.Str(t.spec.ID)
	e.Uvarint(t.epochs[wi])
	return e
}

// NewTransport registers population spec on every worker (each builds its
// shard range's agents fresh from the named workload) and returns the
// coordinator-side transport. spec.Shards may be unnormalized; the
// normalized shape is what crosses the wire.
func (cl *Client) NewTransport(spec Spec) (*Transport, error) {
	if spec.ID == "" || spec.Agents <= 0 {
		return nil, errors.New("cluster: spec needs an id and a positive agent count")
	}
	norm := population.Config{Agents: spec.Agents, Shards: spec.Shards}.Normalized()
	spec.Shards = norm.Shards
	conns := cl.snapshotConns()
	if spec.Shards < len(conns) {
		return nil, fmt.Errorf("cluster: %d workers for %d shards; every worker must own at least one shard",
			len(conns), spec.Shards)
	}
	wbounds := population.Partition(spec.Shards, len(conns))
	t := &Transport{
		client:  cl,
		spec:    spec,
		abounds: population.Partition(spec.Agents, spec.Shards),
		owner:   make([]int, spec.Shards),
		dead:    make([]bool, len(conns)),
		epochs:  make([]uint64, len(conns)),
		wires:   make([]*tickWire, len(conns)),
		outs:    make([]*population.ShardExchange, spec.Shards),
		costs:   population.NewCostModel(spec.Shards),
	}
	for i := range t.outs {
		t.outs[i] = &population.ShardExchange{}
	}
	for wi := range conns {
		t.wires[wi] = new(tickWire)
		for s := wbounds[wi]; s < wbounds[wi+1]; s++ {
			t.owner[s] = wi
		}
	}
	t.placed()
	for wi, c := range conns {
		loS, hiS := wbounds[wi], wbounds[wi+1]
		e := codec.NewEncoder()
		e.Uvarint(protocolVersion)
		encodeSpec(e, spec)
		e.Int(loS)
		e.Int(hiS)
		body, err := c.call(msgInit, e.Bytes(), msgOK)
		if err == nil {
			d := codec.NewDecoder(body)
			t.epochs[wi] = d.Uvarint()
			if ferr := d.Finish(); ferr != nil {
				err = fmt.Errorf("cluster: worker %s: bad init reply: %w", c.addr, ferr)
			}
		}
		if err != nil {
			// Workers already initialised hold full shard ranges for an
			// attach that will never tick; drop them (best-effort) so a
			// failed attach does not pin agent memory for their lifetime.
			t.drop(wi)
			return nil, err
		}
		t.publishEpoch(wi)
	}
	if cl.reg != nil {
		p := obs.L("pop", spec.ID)
		t.migrations = cl.reg.Counter("sacs_cluster_migrations_total",
			"committed live shard-range migrations", p)
		t.readmissions = cl.reg.Counter("sacs_cluster_readmissions_total",
			"orphaned shard ranges re-homed onto re-admitted workers", p)
		// Per-shard cost estimates, one series per shard for the
		// population's lifetime: which worker owns a shard is in
		// GET /cluster and the per-worker gauges, not in these labels.
		t.costGauge = make([]*obs.Gauge, spec.Shards)
		for s := range t.costGauge {
			t.costGauge[s] = cl.reg.ScaledGauge("sacs_cluster_shard_cost_seconds",
				"per-shard step-cost estimate", obs.Seconds, p, obs.L("shard", strconv.Itoa(s)))
		}
		for wi := range t.epochs {
			t.registerWorkerGauges(wi)
		}
		t.updateWorkerGauges()
	}
	return t, nil
}

// publishEpoch updates the attach-epoch gauge for worker wi. The epoch
// gauge makes a split-brain re-attach visible on a dashboard: a second
// coordinator bumping the epoch moves this gauge out from under the first.
func (t *Transport) publishEpoch(wi int) {
	if t.client.reg == nil {
		return
	}
	t.client.reg.Gauge("sacs_cluster_attach_epoch",
		"attach epoch this coordinator holds on each worker",
		obs.L("pop", t.spec.ID), obs.L("worker", t.client.conn(wi).addr)).Set(int64(t.epochs[wi]))
}

// registerWorkerGauges appends the per-worker shard-count and load gauges
// for worker wi (call in index order only).
func (t *Transport) registerWorkerGauges(wi int) {
	if t.client.reg == nil {
		return
	}
	p := obs.L("pop", t.spec.ID)
	w := obs.L("worker", t.client.conn(wi).addr)
	t.workerShards = append(t.workerShards, t.client.reg.Gauge("sacs_cluster_worker_shards",
		"shards of this population each worker currently owns", p, w))
	t.workerCost = append(t.workerCost, t.client.reg.ScaledGauge("sacs_cluster_worker_cost_seconds",
		"summed per-shard step-cost estimate each worker currently carries",
		obs.Seconds, p, w))
}

// updateWorkerGauges sets every worker's shard-count and load gauges. It
// runs every tick, so it sums each worker's owned shards (t.wires, in
// shard order, as rollup sums them) in place instead of building the
// rollup.
func (t *Transport) updateWorkerGauges() {
	if t.workerShards == nil {
		return
	}
	for wi, w := range t.wires {
		var cost float64
		for _, s := range w.shards {
			cost += t.costs.Estimate(s)
		}
		t.workerShards[wi].Set(int64(len(w.shards)))
		t.workerCost[wi].Set(int64(cost))
	}
}

// ShardCosts appends the coordinator's per-shard cost estimates (nanos,
// shard index order) to dst.
func (t *Transport) ShardCosts(dst []float64) []float64 {
	return t.costs.EstimatesInto(dst, 0, t.spec.Shards)
}

// Workers reports the number of worker slots in this placement (dead ones
// included; the client may hold more that were never admitted here).
func (t *Transport) Workers() int { return len(t.epochs) }

// Owner returns a copy of the shard→worker map.
func (t *Transport) Owner() []int { return append([]int(nil), t.owner...) }

// drop releases this attach's ranges from the first n worker slots,
// best-effort (a worker that is already gone has nothing to release).
func (t *Transport) drop(n int) {
	for wi := 0; wi < n; wi++ {
		if wi < len(t.epochs) && t.epochs[wi] == 0 {
			continue // never admitted: nothing to drop
		}
		_, _ = t.client.conn(wi).call(msgDrop, t.popHeader(wi).Bytes(), msgOK)
	}
}

// placed refreshes every worker slot's shards and mail spans from the owner
// map (walked in shard order, so each list is sorted). Call it after every
// change to the map.
func (t *Transport) placed() {
	for _, w := range t.wires {
		w.shards = w.shards[:0]
	}
	for s, wi := range t.owner {
		t.wires[wi].shards = append(t.wires[wi].shards, s)
	}
	for _, w := range t.wires {
		w.spans = agentSpans(t.abounds, shardRuns(w.shards))
	}
}

// agentSpans maps shard runs to their agent intervals under the agent
// partition bounds.
func agentSpans(bounds []int, runs []span) []span {
	spans := make([]span, len(runs))
	for i, r := range runs {
		spans[i] = span{lo: bounds[r.lo], hi: bounds[r.hi]}
	}
	return spans
}

// shardRuns turns a sorted shard list into its contiguous runs.
func shardRuns(shards []int) []span {
	var runs []span
	for i := 0; i < len(shards); {
		j := i
		for j+1 < len(shards) && shards[j+1] == shards[j]+1 {
			j++
		}
		runs = append(runs, span{lo: shards[i], hi: shards[j] + 1})
		i = j + 1
	}
	return runs
}

// checkAlive fails when any shard is owned by a detached worker — ticking
// or exporting would silently skip its state otherwise. The remedy is
// Assign: re-home the orphaned ranges onto an admitted worker.
func (t *Transport) checkAlive() error {
	for wi, w := range t.wires {
		if len(w.shards) > 0 && t.dead[wi] {
			return fmt.Errorf("cluster: worker %s is detached but still owns %d shards; "+
				"re-admit a worker and Assign them", t.client.conn(wi).addr, len(w.shards))
		}
	}
	return nil
}

// Step fans the tick out to every shard-owning worker in parallel and
// splices the replies back into shard index order via the owner map.
func (t *Transport) Step(tick int, mail [][]core.Stimulus) ([]*population.ShardExchange, error) {
	if err := t.checkAlive(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for wi, w := range t.wires {
		w.err = nil
		if len(w.shards) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.err = t.tickWorker(wi, w, tick, mail)
		}()
	}
	wg.Wait()
	for _, w := range t.wires {
		if w.err != nil {
			return nil, w.err
		}
	}
	// Fold the tick's observed step times into the coordinator's cost
	// view (single-goroutine: all worker replies are in).
	for s, o := range t.outs {
		t.costs.Observe(s, o.StepNanos)
		if t.costGauge != nil {
			t.costGauge[s].Set(int64(t.costs.Estimate(s)))
		}
	}
	t.updateWorkerGauges()
	return t.outs, nil
}

// tickWorker runs one worker's share of a tick: its owned agents' mail out,
// its shards' exchanges back into t.outs.
func (t *Transport) tickWorker(wi int, w *tickWire, tick int, mail [][]core.Stimulus) error {
	c := t.client.conn(wi)
	e := &w.req
	e.Reset()
	e.Str(t.spec.ID)
	e.Uvarint(t.epochs[wi])
	e.Int(tick)
	encodeMail(e, mail, w.spans)
	body, err := c.callInto(&w.reply, msgTick, e.Bytes(), msgTickOK)
	if err != nil {
		return err
	}
	if err := decodeTickReply(body, w.shards, t.outs, t.spec.Agents, &w.names); err != nil {
		return fmt.Errorf("cluster: worker %s: %w", c.addr, err)
	}
	return nil
}

// Export drains every owned run of the owner map, the workers in
// parallel and each worker's runs in turn, and stitches the full
// population state together in shard index order. It asks for exactly the
// owner map's runs, so every shard is read once; a worker still hosting
// shards the map gave away is not seen here but at the next tick (see
// Migrate). Agent states are never decoded here: each shard's run is a
// slice of its drain reply.
func (t *Transport) Export() (*population.RangeState, error) {
	if err := t.checkAlive(); err != nil {
		return nil, err
	}
	full := &population.RangeState{
		LoShard: 0, HiShard: t.spec.Shards, LoAgent: 0, HiAgent: t.spec.Agents,
		ShardRNG: make([]uint64, t.spec.Shards),
		AgentRNG: make([]uint64, t.spec.Agents),
		Runs:     make([][]byte, t.spec.Shards),
	}
	errs := make([]error, len(t.wires))
	var wg sync.WaitGroup
	for wi, w := range t.wires {
		if len(w.shards) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range shardRuns(w.shards) {
				body, err := t.drain(wi, r.lo, r.hi)
				if err != nil {
					errs[wi] = err
					return
				}
				d := codec.NewDecoder(body)
				rs := checkpoint.DecodeRange(d, t.abounds)
				if err := d.Finish(); err != nil {
					errs[wi] = fmt.Errorf("cluster: worker %s: %w", t.client.conn(wi).addr, err)
					return
				}
				copy(full.ShardRNG[r.lo:r.hi], rs.ShardRNG)
				copy(full.AgentRNG[rs.LoAgent:rs.HiAgent], rs.AgentRNG)
				copy(full.Runs[r.lo:r.hi], rs.Runs)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return full, nil
}

// drain asks worker wi for the state of shards [lo, hi), which it must
// host, and returns the msgRange body as it arrived once its bounds are
// checked to be the range asked for. It is read-only on the worker.
func (t *Transport) drain(wi, lo, hi int) ([]byte, error) {
	c := t.client.conn(wi)
	e := t.popHeader(wi)
	e.Int(lo)
	e.Int(hi)
	body, err := c.call(msgDrain, e.Bytes(), msgRange)
	if err != nil {
		return nil, err
	}
	d := codec.NewDecoder(body)
	if gLo, gHi, aLo, aHi := d.Int(), d.Int(), d.Int(), d.Int(); d.Err() != nil ||
		gLo != lo || gHi != hi || aLo != t.abounds[lo] || aHi != t.abounds[hi] {
		return nil, fmt.Errorf("cluster: worker %s: drain [%d, %d) returned shards [%d, %d) agents [%d, %d) (%v)",
			c.addr, lo, hi, gLo, gHi, aLo, aHi, d.Err())
	}
	return body, nil
}

// Install pushes each worker its owned runs' slices of rs — the
// state-transfer path behind RestoreWithTransport and worker replacement.
func (t *Transport) Install(rs *population.RangeState) error {
	if rs.LoShard != 0 || rs.HiShard != t.spec.Shards {
		return fmt.Errorf("cluster: install state covers shards [%d, %d), population has %d",
			rs.LoShard, rs.HiShard, t.spec.Shards)
	}
	if err := t.checkAlive(); err != nil {
		return err
	}
	for wi, w := range t.wires {
		if len(w.shards) == 0 {
			continue
		}
		c := t.client.conn(wi)
		for _, run := range shardRuns(w.shards) {
			loA, hiA := t.abounds[run.lo], t.abounds[run.hi]
			part := &population.RangeState{
				LoShard: run.lo, HiShard: run.hi, LoAgent: loA, HiAgent: hiA,
				ShardRNG: rs.ShardRNG[run.lo:run.hi],
				AgentRNG: rs.AgentRNG[loA:hiA],
				Runs:     rs.Runs[run.lo:run.hi],
			}
			e := t.popHeader(wi)
			checkpoint.AppendRange(e, part)
			if _, err := c.call(msgInstall, e.Bytes(), msgOK); err != nil {
				return err
			}
		}
	}
	return nil
}

// Explain routes the explanation request to the worker hosting agent id.
func (t *Transport) Explain(id int, now float64) (string, error) {
	if id < 0 || id >= t.spec.Agents {
		return "", fmt.Errorf("cluster: agent %d out of range (population %d)", id, t.spec.Agents)
	}
	// The shard owning id, then the worker owning that shard.
	s := sort.SearchInts(t.abounds[1:], id+1)
	wi := t.owner[s]
	if t.dead[wi] {
		return "", fmt.Errorf("cluster: agent %d lives on detached worker %s", id, t.client.conn(wi).addr)
	}
	e := t.popHeader(wi)
	e.Int(id)
	e.F64(now)
	body, err := t.client.conn(wi).call(msgExplain, e.Bytes(), msgText)
	if err != nil {
		return "", err
	}
	d := codec.NewDecoder(body)
	text := d.Str()
	if err := d.Finish(); err != nil {
		return "", fmt.Errorf("cluster: worker %s: %w", t.client.conn(wi).addr, err)
	}
	return text, nil
}

// Migrate moves shards [lo, hi) — which must currently share one owner —
// onto worker `to`, live, at the caller's tick barrier:
//
//  1. drain: the source exports the subrange (read-only — it stays
//     authoritative and keeps serving if anything later fails);
//  2. adopt: the destination builds the range's agents fresh and installs
//     the drained state;
//  3. release: the source forgets the range — the commit point;
//  4. the owner map re-routes, and the next tick fans out accordingly.
//
// Failure handling follows from the order: an adopt failure rolls the
// destination back (best-effort) and leaves the map untouched, so the
// source still owns the range and the run continues unharmed. A release
// failure rolls the destination back too; only if that rollback also fails
// can ownership be genuinely split — which the next tick's per-worker
// shard-count check turns into a loud error (poisoning the engine) rather
// than silent double-stepping.
func (t *Transport) Migrate(lo, hi, to int) error {
	if err := population.ValidateShardRange(lo, hi, t.spec.Shards); err != nil {
		return fmt.Errorf("cluster: migrate: %w", err)
	}
	from := t.owner[lo]
	for s := lo; s < hi; s++ {
		if t.owner[s] != from {
			return fmt.Errorf("cluster: migrate [%d, %d): shard %d owned by worker %d, shard %d by worker %d",
				lo, hi, lo, from, s, t.owner[s])
		}
	}
	if t.dead[from] {
		return fmt.Errorf("cluster: migrate [%d, %d): source worker %s is detached; use Assign from a snapshot",
			lo, hi, t.client.conn(from).addr)
	}
	if to < 0 || to >= len(t.epochs) {
		return fmt.Errorf("cluster: migrate [%d, %d): destination worker %d of %d", lo, hi, to, len(t.epochs))
	}
	if to == from {
		return fmt.Errorf("cluster: migrate [%d, %d): destination is the current owner", lo, hi)
	}
	if t.dead[to] {
		return fmt.Errorf("cluster: migrate [%d, %d): destination worker %s is detached", lo, hi, t.client.conn(to).addr)
	}
	if t.epochs[to] == 0 {
		return fmt.Errorf("cluster: migrate [%d, %d): worker %s not admitted to population %q (AdmitWorker first)",
			lo, hi, t.client.conn(to).addr, t.spec.ID)
	}
	src, dst := t.client.conn(from), t.client.conn(to)

	// The drained range goes on to the destination as it arrived; the
	// destination validates it before adopting anything.
	body, err := t.drain(from, lo, hi)
	if err != nil {
		return fmt.Errorf("cluster: migrate [%d, %d) %s→%s: drain: %w", lo, hi, src.addr, dst.addr, err)
	}

	e := t.popHeader(to)
	e.Raw(body)
	if _, err := dst.call(msgAdopt, e.Bytes(), msgOK); err != nil {
		// The adopt may or may not have applied before the failure; try to
		// roll the destination back so it cannot later claim the range. The
		// source never released, so it stays authoritative either way.
		t.releaseQuiet(to, lo, hi)
		return fmt.Errorf("cluster: migrate [%d, %d) %s→%s: adopt (source still authoritative): %w",
			lo, hi, src.addr, dst.addr, err)
	}

	if err := t.release(from, lo, hi); err != nil {
		if rbErr := t.release(to, lo, hi); rbErr != nil {
			return fmt.Errorf("cluster: migrate [%d, %d) %s→%s: release failed AND destination rollback failed "+
				"— ownership may be split; the next tick will fail loudly: %w (rollback: %v)",
				lo, hi, src.addr, dst.addr, err, rbErr)
		}
		return fmt.Errorf("cluster: migrate [%d, %d) %s→%s: release (destination rolled back, source authoritative): %w",
			lo, hi, src.addr, dst.addr, err)
	}

	for s := lo; s < hi; s++ {
		t.owner[s] = to
	}
	t.placed()
	if t.migrations != nil {
		t.migrations.Inc()
	}
	t.updateWorkerGauges()
	return nil
}

func (t *Transport) release(wi, lo, hi int) error {
	e := t.popHeader(wi)
	e.Int(lo)
	e.Int(hi)
	_, err := t.client.conn(wi).call(msgRelease, e.Bytes(), msgOK)
	return err
}

// releaseQuiet is release for rollback paths: when the range was never
// adopted the worker answers "not hosted", which is exactly the state the
// rollback wants — not an error worth surfacing over the original one.
func (t *Transport) releaseQuiet(wi, lo, hi int) {
	_ = t.release(wi, lo, hi)
}

// AdmitWorker folds client worker wi into this population's placement with
// no shards: the worker builds the workload config (so later adopts can
// construct agents), hands back a fresh attach epoch — a restarted process
// at the same address is indistinguishable from a new one, which is the
// point — and becomes a valid Migrate/Assign destination. Admitting a live
// worker that still owns shards is refused: re-initialising it would
// destroy their state (migrate them away first).
func (t *Transport) AdmitWorker(wi int) error {
	if wi < 0 || wi >= t.client.Workers() {
		return fmt.Errorf("cluster: admit worker %d of %d", wi, t.client.Workers())
	}
	for len(t.epochs) <= wi {
		t.epochs = append(t.epochs, 0)
		t.dead = append(t.dead, false)
		t.wires = append(t.wires, new(tickWire))
		t.registerWorkerGauges(len(t.epochs) - 1)
	}
	if !t.dead[wi] && t.epochs[wi] != 0 {
		for s := range t.owner {
			if t.owner[s] == wi {
				return fmt.Errorf("cluster: worker %s still owns shard %d; migrate its shards away before re-admitting",
					t.client.conn(wi).addr, s)
			}
		}
	}
	c := t.client.conn(wi)
	e := codec.NewEncoder()
	e.Uvarint(protocolVersion)
	encodeSpec(e, t.spec)
	e.Int(0)
	e.Int(0)
	body, err := c.call(msgInit, e.Bytes(), msgOK)
	if err != nil {
		return err
	}
	d := codec.NewDecoder(body)
	epoch := d.Uvarint()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("cluster: worker %s: bad init reply: %w", c.addr, err)
	}
	t.epochs[wi] = epoch
	t.dead[wi] = false
	t.publishEpoch(wi)
	t.updateWorkerGauges()
	return nil
}

// DetachWorker marks worker wi dead for this placement: its shards stay
// mapped to it (ticking fails loudly until they are re-homed) and it stops
// being a migration destination. The slot — and the TCP connection, which
// Redial can later replace in place — survives, so indices stay stable.
func (t *Transport) DetachWorker(wi int) error {
	if wi < 0 || wi >= len(t.epochs) {
		return fmt.Errorf("cluster: detach worker %d of %d", wi, len(t.epochs))
	}
	t.dead[wi] = true
	t.updateWorkerGauges()
	return nil
}

// Assign re-homes rs — a shard range whose mapped owner is dead, taken
// from live engine state (a barrier snapshot's Snapshot.Range, never a
// disk checkpoint) — onto admitted worker `to`. This is the re-admission
// path: kill a worker at tick T, snapshot at the barrier, Redial +
// AdmitWorker a replacement, Assign it the orphaned ranges, and the run
// continues byte-identically.
func (t *Transport) Assign(rs *population.RangeState, to int) error {
	if rs == nil {
		return errors.New("cluster: assign nil range state")
	}
	if err := population.ValidateShardRange(rs.LoShard, rs.HiShard, t.spec.Shards); err != nil {
		return fmt.Errorf("cluster: assign: %w", err)
	}
	if rs.LoAgent != t.abounds[rs.LoShard] || rs.HiAgent != t.abounds[rs.HiShard] {
		return fmt.Errorf("cluster: assign shards [%d, %d) carrying agents [%d, %d), partition says [%d, %d)",
			rs.LoShard, rs.HiShard, rs.LoAgent, rs.HiAgent, t.abounds[rs.LoShard], t.abounds[rs.HiShard])
	}
	if to < 0 || to >= len(t.epochs) || t.dead[to] || t.epochs[to] == 0 {
		return fmt.Errorf("cluster: assign to worker %d: not an admitted live worker", to)
	}
	for s := rs.LoShard; s < rs.HiShard; s++ {
		if t.owner[s] == to {
			continue // idempotent re-assign after a partial failure
		}
		if !t.dead[t.owner[s]] {
			return fmt.Errorf("cluster: assign shard %d: owner %s is alive — use Migrate",
				s, t.client.conn(t.owner[s]).addr)
		}
	}
	e := t.popHeader(to)
	checkpoint.AppendRange(e, rs)
	if _, err := t.client.conn(to).call(msgAdopt, e.Bytes(), msgOK); err != nil {
		return fmt.Errorf("cluster: assign [%d, %d) to %s: %w",
			rs.LoShard, rs.HiShard, t.client.conn(to).addr, err)
	}
	for s := rs.LoShard; s < rs.HiShard; s++ {
		t.owner[s] = to
	}
	t.placed()
	if t.readmissions != nil {
		t.readmissions.Inc()
	}
	t.updateWorkerGauges()
	return nil
}

// Rebalance runs the cluster's placement rule (see propose) over the
// current owner map and cost estimates and executes its moves with
// Migrate, in order, at the caller's tick barrier. It returns the moves
// that committed; a failed move stops the batch (the failed move's own
// rollback semantics apply — see Migrate).
func (t *Transport) Rebalance() ([]Move, error) {
	moves := propose(view{Owner: t.owner, Costs: t.ShardCosts(nil), Dead: t.dead})
	for i, m := range moves {
		if err := t.Migrate(m.Lo, m.Hi, m.To); err != nil {
			return moves[:i], err
		}
	}
	return moves, nil
}

// WorkerPlacement is one worker slot's view in Placement.
type WorkerPlacement struct {
	Addr      string  `json:"addr"`
	Epoch     uint64  `json:"epoch"`
	Dead      bool    `json:"dead,omitempty"`
	Shards    int     `json:"shards"`
	CostNanos float64 `json:"cost_nanos"`
}

// Placement reports the live shard→worker map and each worker slot's
// shard count, summed cost estimate and attach epoch — the admin view
// serve renders at GET /cluster.
func (t *Transport) Placement() (owner []int, workers []WorkerPlacement) {
	return t.Owner(), t.rollup()
}

// rollup is the per-worker view of the owner map and the cost model: each
// worker slot's address, attach epoch, liveness, shard count and summed
// cost estimate, as Placement reports it.
func (t *Transport) rollup() []WorkerPlacement {
	workers := make([]WorkerPlacement, len(t.epochs))
	for wi := range workers {
		workers[wi] = WorkerPlacement{
			Addr:  t.client.conn(wi).addr,
			Epoch: t.epochs[wi],
			Dead:  t.dead[wi],
		}
	}
	for s, wi := range t.owner {
		workers[wi].Shards++
		workers[wi].CostNanos += t.costs.Estimate(s)
	}
	return workers
}

// Close drops this attach's population from every worker (best-effort; a
// worker that is already gone is not an error on shutdown, and a range
// re-attached by a newer coordinator is left alone — the epoch no longer
// matches). The shared Client stays open for other populations.
func (t *Transport) Close() error {
	t.drop(len(t.epochs))
	return nil
}
