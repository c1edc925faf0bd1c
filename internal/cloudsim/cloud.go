package cloudsim

import (
	"fmt"
	"math"
	"math/rand"

	"sacs/internal/env"
	"sacs/internal/stats"
)

// Request is one unit of work submitted to the cloud.
type Request struct {
	ID      int
	Arrive  float64
	Work    float64 // work units required
	remains float64
	retries int
}

// Node is one volunteer machine. Speed and reliability are hidden from
// dispatchers: only observed outcomes reveal them.
type Node struct {
	ID          int
	Speed       float64 // work units per tick
	Reliability float64 // probability a completed request actually succeeds
	Alive       bool
	Active      bool // autoscaler may park alive nodes

	queue []*Request
}

// QueueLen reports the node's backlog (observable by dispatchers).
func (n *Node) QueueLen() int { return len(n.queue) }

// queueWork sums remaining work in the backlog.
func (n *Node) queueWork() float64 {
	w := 0.0
	for _, r := range n.queue {
		w += r.remains
	}
	return w
}

// Config parameterises a cloud run.
type Config struct {
	Seed     int64
	Nodes    int
	Ticks    int
	MaxNodes int // cap for churn-in and autoscaling (default 2·Nodes)

	// ArrivalRate is requests per tick (may be time-varying).
	ArrivalRate env.Signal
	// MeanWork is the average request size in work units (default 8).
	MeanWork float64
	// WorkSigma is the log-normal sigma of request size (default 0.5).
	WorkSigma float64
	// SLA is the latency bound counted as violation when exceeded
	// (default 40 ticks).
	SLA float64

	// SpeedMin/SpeedMax bound per-node speeds (default 0.5..3).
	SpeedMin, SpeedMax float64
	// UnreliableFrac of nodes get reliability drawn from 0.3..0.7; the
	// rest get 0.95..1.0 (default 0.3).
	UnreliableFrac float64
	// ChurnOut is the per-node per-tick death probability (default 0.0005).
	ChurnOut float64
	// ChurnIn is the per-tick probability a new node joins (default 0.02).
	ChurnIn float64
	// MaxRetries bounds re-dispatch of failed/orphaned requests (default 2).
	MaxRetries int
}

func (c *Config) defaults() {
	if c.MaxNodes == 0 {
		c.MaxNodes = c.Nodes * 2
	}
	if c.ArrivalRate == nil {
		c.ArrivalRate = env.Constant(3)
	}
	if c.MeanWork == 0 {
		c.MeanWork = 8
	}
	if c.WorkSigma == 0 {
		c.WorkSigma = 0.5
	}
	if c.SLA == 0 {
		c.SLA = 40
	}
	if c.SpeedMin == 0 {
		c.SpeedMin = 0.5
	}
	if c.SpeedMax == 0 {
		c.SpeedMax = 3
	}
	if c.UnreliableFrac == 0 {
		c.UnreliableFrac = 0.3
	}
	if c.ChurnOut == 0 {
		c.ChurnOut = 0.0005
	}
	if c.ChurnIn == 0 {
		c.ChurnIn = 0.02
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
}

// Dispatcher selects a node for each arriving request and learns from
// outcomes.
type Dispatcher interface {
	Name() string
	// Choose picks one of the candidate nodes (all alive and active;
	// never empty).
	Choose(now float64, candidates []*Node) *Node
	// Feedback reports a completed request's outcome on the chosen node.
	Feedback(now float64, node *Node, success bool, latency float64)
}

// Autoscaler decides how many nodes should be active.
type Autoscaler interface {
	Name() string
	// Desired returns the target active-node count given current state.
	Desired(now float64, arrivals float64, queued int, active int) int
}

// Cloud is a running simulation.
type Cloud struct {
	Cfg        Config
	Dispatcher Dispatcher
	Autoscaler Autoscaler // nil disables autoscaling (all nodes active)

	nodes  []*Node
	rng    *rand.Rand
	nextID int
	reqID  int
	tick   int

	pending []*Request // awaiting (re-)dispatch this tick

	// Outcome accounting.
	Succeeded  int
	Failed     int
	Violations int
	Latency    stats.Online
	latencies  []float64
	NodeTicks  float64 // active node-ticks (cost)
}

// New builds a cloud with the given dispatcher (required) and optional
// autoscaler.
func New(cfg Config, d Dispatcher, s Autoscaler) *Cloud {
	cfg.defaults()
	c := &Cloud{Cfg: cfg, Dispatcher: d, Autoscaler: s, rng: rand.New(rand.NewSource(cfg.Seed))}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, c.newNode())
	}
	return c
}

func (c *Cloud) newNode() *Node {
	cfg := &c.Cfg
	n := &Node{
		ID:    c.nextID,
		Speed: cfg.SpeedMin + c.rng.Float64()*(cfg.SpeedMax-cfg.SpeedMin),
		Alive: true, Active: true,
	}
	if c.rng.Float64() < cfg.UnreliableFrac {
		n.Reliability = 0.3 + c.rng.Float64()*0.4
	} else {
		n.Reliability = 0.95 + c.rng.Float64()*0.05
	}
	c.nextID++
	return n
}

// Nodes returns the current node slice (including dead ones).
func (c *Cloud) Nodes() []*Node { return c.nodes }

func (c *Cloud) activeNodes() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.Alive && n.Active {
			out = append(out, n)
		}
	}
	return out
}

// AliveCount returns the number of live nodes.
func (c *Cloud) AliveCount() int {
	k := 0
	for _, n := range c.nodes {
		if n.Alive {
			k++
		}
	}
	return k
}

// Step advances one tick.
func (c *Cloud) Step() {
	cfg := &c.Cfg
	now := float64(c.tick)
	c.tick++

	// Churn: deaths orphan queued work back to the dispatcher.
	for _, n := range c.nodes {
		if n.Alive && c.rng.Float64() < cfg.ChurnOut {
			n.Alive = false
			for _, r := range n.queue {
				c.retry(r)
			}
			n.queue = nil
		}
	}
	if c.AliveCount() < cfg.MaxNodes && c.rng.Float64() < cfg.ChurnIn {
		c.nodes = append(c.nodes, c.newNode())
	}

	// Arrivals (Poisson-approximated per tick).
	rate := cfg.ArrivalRate.At(now)
	k := poisson(c.rng, rate)
	for i := 0; i < k; i++ {
		work := env.LogNormal(c.rng, cfg.MeanWork, cfg.WorkSigma)
		r := &Request{ID: c.reqID, Arrive: now, Work: work, remains: work}
		c.reqID++
		c.pending = append(c.pending, r)
	}

	// Autoscale before dispatching.
	active := c.activeNodes()
	if c.Autoscaler != nil {
		queued := len(c.pending)
		for _, n := range active {
			queued += len(n.queue)
		}
		desired := c.Autoscaler.Desired(now, rate, queued, len(active))
		c.applyScale(desired)
		active = c.activeNodes()
	}

	// Dispatch all pending requests.
	if len(active) > 0 {
		for _, r := range c.pending {
			n := c.Dispatcher.Choose(now, active)
			n.queue = append(n.queue, r)
		}
		c.pending = c.pending[:0]
	}

	// Service: each active node processes Speed units FIFO.
	for _, n := range c.nodes {
		if !n.Alive || !n.Active {
			continue
		}
		c.NodeTicks++
		budget := n.Speed
		for budget > 0 && len(n.queue) > 0 {
			r := n.queue[0]
			if r.remains > budget {
				r.remains -= budget
				budget = 0
				break
			}
			budget -= r.remains
			r.remains = 0
			n.queue = n.queue[1:]
			c.complete(now+1, n, r)
		}
	}
}

func (c *Cloud) complete(now float64, n *Node, r *Request) {
	latency := now - r.Arrive
	success := c.rng.Float64() < n.Reliability
	c.Dispatcher.Feedback(now, n, success, latency)
	if !success {
		c.retry(r)
		return
	}
	c.Succeeded++
	c.Latency.Add(latency)
	c.latencies = append(c.latencies, latency)
	if latency > c.Cfg.SLA {
		c.Violations++
	}
}

func (c *Cloud) retry(r *Request) {
	if r.retries >= c.Cfg.MaxRetries {
		c.Failed++
		return
	}
	r.retries++
	r.remains = r.Work
	c.pending = append(c.pending, r)
}

// applyScale activates or parks nodes toward the desired count. Parked
// nodes finish nothing; their queues are re-dispatched.
func (c *Cloud) applyScale(desired int) {
	if desired < 1 {
		desired = 1
	}
	if desired > c.Cfg.MaxNodes {
		desired = c.Cfg.MaxNodes
	}
	active := c.activeNodes()
	if len(active) < desired {
		need := desired - len(active)
		for _, n := range c.nodes {
			if need == 0 {
				break
			}
			if n.Alive && !n.Active {
				n.Active = true
				need--
			}
		}
	} else if len(active) > desired {
		drop := len(active) - desired
		// Park the emptiest nodes first.
		for i := 0; i < drop; i++ {
			var victim *Node
			for _, n := range c.activeNodes() {
				if victim == nil || len(n.queue) < len(victim.queue) {
					victim = n
				}
			}
			if victim == nil {
				break
			}
			victim.Active = false
			for _, r := range victim.queue {
				c.retry(r)
			}
			victim.queue = nil
		}
	}
}

// Run executes the configured number of ticks and returns the summary.
func (c *Cloud) Run() Result {
	for i := 0; i < c.Cfg.Ticks; i++ {
		c.Step()
	}
	return c.Result()
}

// Result summarises a run.
type Result struct {
	SuccessRate  float64
	MeanLatency  float64
	P95Latency   float64
	SLAViolation float64 // fraction of successes over the SLA bound
	NodeTicks    float64
	Succeeded    int
	Failed       int
}

// Result computes the summary so far.
func (c *Cloud) Result() Result {
	total := c.Succeeded + c.Failed
	r := Result{
		MeanLatency: c.Latency.Mean(),
		P95Latency:  stats.Quantile(c.latencies, 0.95),
		NodeTicks:   c.NodeTicks,
		Succeeded:   c.Succeeded,
		Failed:      c.Failed,
	}
	if total > 0 {
		r.SuccessRate = float64(c.Succeeded) / float64(total)
	}
	if c.Succeeded > 0 {
		r.SLAViolation = float64(c.Violations) / float64(c.Succeeded)
	}
	return r
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("success=%.3f meanLat=%.1f p95=%.1f slaViol=%.3f nodeTicks=%.0f",
		r.SuccessRate, r.MeanLatency, r.P95Latency, r.SLAViolation, r.NodeTicks)
}

// poisson samples a Poisson variate via Knuth's method (fine for the small
// rates used here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates.
		v := int(math.Round(rng.NormFloat64()*math.Sqrt(lambda) + lambda))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
