package main

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sacs/internal/core"
	"sacs/internal/obs"
	"sacs/internal/population"
)

// stepRec is what the timing decorator learns from one Transport.Step.
type stepRec struct {
	wall       int64 // ns, the Step call
	busy       int64 // Σ ShardExchange.StepNanos
	msgs       int
	delivered  int
	steals     int
	workerBusy []int64 // per cluster worker (nil in-process)
	rpc        []int64 // per cluster worker, that tick's RPC round trip (nil in-process)
}

// timedTransport is the benchmark's decorator around the population.Transport
// an engine is built over. It times Step, Export and Install and reads the
// per-shard exchanges; it changes nothing it forwards. The engine calls it
// from one goroutine at a time (the server holds the population lock), so
// it needs no locking of its own.
type timedTransport struct {
	population.Transport
	tr *tracer

	// parent is the driver's enclosing span (an advance or a checkpoint)
	// for the spans recorded here; the driver sets it before each call.
	parent int
	tick   int64

	// Cluster only: shard → worker, and each worker's tick-RPC histogram.
	owner []int
	rpc   []*obs.Histogram

	steps    []stepRec
	exports  []float64 // ms
	installs []float64 // ms
}

func newTimedTransport(t population.Transport, tr *tracer) *timedTransport {
	return &timedTransport{Transport: t, tr: tr, parent: -1}
}

func (t *timedTransport) Step(tick int, mail [][]core.Stimulus) ([]*population.ShardExchange, error) {
	var before []int64
	if t.rpc != nil {
		before = make([]int64, len(t.rpc))
		for i, h := range t.rpc {
			before[i] = h.Sum()
		}
	}
	start := time.Now()
	outs, err := t.Transport.Step(tick, mail)
	end := time.Now()
	t.tr.record("step", int64(tick), t.parent, start, end)
	if err != nil {
		return outs, err
	}
	rec := stepRec{wall: int64(end.Sub(start))}
	if t.rpc != nil {
		rec.workerBusy = make([]int64, len(t.rpc))
		rec.rpc = make([]int64, len(t.rpc))
		for i, h := range t.rpc {
			rec.rpc[i] = h.Sum() - before[i]
		}
	}
	for s, o := range outs {
		rec.busy += o.StepNanos
		rec.msgs += len(o.Msgs)
		rec.delivered += o.Delivered
		rec.steals += o.Steals
		if rec.workerBusy != nil {
			rec.workerBusy[t.owner[s]] += o.StepNanos
		}
	}
	t.steps = append(t.steps, rec)
	return outs, nil
}

func (t *timedTransport) Export() (*population.RangeState, error) {
	start := time.Now()
	rs, err := t.Transport.Export()
	end := time.Now()
	t.tr.record("export", t.tick, t.parent, start, end)
	t.exports = append(t.exports, ms(end.Sub(start)))
	return rs, err
}

func (t *timedTransport) Install(rs *population.RangeState) error {
	start := time.Now()
	err := t.Transport.Install(rs)
	end := time.Now()
	t.tr.record("install", t.tick, t.parent, start, end)
	t.installs = append(t.installs, ms(end.Sub(start)))
	return err
}

// Operation kinds of the serve-mixed request mix.
type opKind int

const (
	opStatus opKind = iota
	opExplain
	opIngest
	opKinds
)

var opNames = [opKinds]string{"status", "explain", "ingest"}

// reqHeader carries the request id from the client to the middleware, so
// the client span and the handler span of one request share an id.
const reqHeader = "X-Perfbench-Req"

func opOf(r *http.Request) opKind {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/stimuli"):
		return opIngest
	case strings.HasSuffix(r.URL.Path, "/explain"):
		return opExplain
	}
	return opStatus
}

// middleware records one span per request around the program's handler.
// An explain whose handler saw the cache-hit counter stand still rendered
// under the population lock: it is recorded as handler.explain_miss. With
// two connections a concurrent hit can mask a miss, so misses are a lower
// bound.
func middleware(next http.Handler, tr *tracer, hits *obs.Counter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		op := opOf(r)
		h0 := hits.Value()
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		name := "handler." + opNames[op]
		if op == opExplain && hits.Value() == h0 {
			name = "handler.explain_miss"
		}
		tr.record(name, id, -1, start, end)
	})
}

// Help strings of the program's own instruments. obs.Registry hands back an
// existing series when name, help, kind and labels match, which is how the
// benchmark reads counters the program exports without changing it.
const (
	helpPhase     = "cumulative tick wall time by phase (step/barrier/route/snapshot)"
	helpHits      = "explains served from the per-tick LRU without rendering"
	helpRenders   = "explains rendered under the population lock (at most one per agent per tick)"
	helpShed      = "stimuli shed by the mailbox budget (whole batches, 429 to the caller)"
	helpDuring    = "view reads served while a tick was in flight (proof reads never block on Advance)"
	helpCkpt      = "checkpoint duration (snapshot, encode, write)"
	helpRPC       = "round-trip latency by request type"
	helpRPCBytes  = "frame bytes by direction"
	metricPhase   = "sacs_population_phase_seconds_total"
	metricRPC     = "sacs_cluster_rpc_seconds"
	metricRPCByte = "sacs_cluster_rpc_bytes_total"
)

// probe looks up instruments the program has already registered. A lookup
// that does not match the program's registration (renamed metric, changed
// help) is reported as an error instead of the registry's panic.
type probe struct {
	reg *obs.Registry
	err error
}

func (p *probe) guard(name string) {
	if r := recover(); r != nil && p.err == nil {
		p.err = fmt.Errorf("reading program metric %s: %v", name, r)
	}
}

func (p *probe) counter(name, help string, labels ...obs.Label) (c *obs.Counter) {
	defer p.guard(name)
	return p.reg.Counter(name, help, labels...)
}

func (p *probe) seconds(name, help string, labels ...obs.Label) (c *obs.Counter) {
	defer p.guard(name)
	return p.reg.ScaledCounter(name, help, obs.Seconds, labels...)
}

func (p *probe) histogram(name, help string, labels ...obs.Label) (h *obs.Histogram) {
	defer p.guard(name)
	return p.reg.Histogram(name, help, obs.Seconds, obs.DurationBounds(), labels...)
}

// phases are the engine's own tick-phase counters for one population.
type phases struct{ step, barrier, route, snapshot *obs.Counter }

func (p *probe) phases(pop string) phases {
	ph := func(name string) *obs.Counter {
		return p.seconds(metricPhase, helpPhase, obs.L("pop", pop), obs.L("phase", name))
	}
	return phases{step: ph("step"), barrier: ph("barrier"), route: ph("route"), snapshot: ph("snapshot")}
}

// phaseMark is a reading of the phase counters, in ns.
type phaseMark struct{ stepBarrier, route, snapshot int64 }

func (ph phases) mark() phaseMark {
	return phaseMark{
		stepBarrier: ph.step.Value() + ph.barrier.Value(),
		route:       ph.route.Value(),
		snapshot:    ph.snapshot.Value(),
	}
}

func (m phaseMark) sub(o phaseMark) phaseMark {
	return phaseMark{m.stepBarrier - o.stepBarrier, m.route - o.route, m.snapshot - o.snapshot}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// nsMs converts nanoseconds to float milliseconds.
func nsMs(ns int64) float64 { return float64(ns) / 1e6 }

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap bytes the process has allocated.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
