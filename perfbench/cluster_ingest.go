package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/cluster"
	"sacs/internal/experiments"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
	"sacs/internal/serve"
)

// cluster-ingest: the population hosted through serve.Options.UseCluster on
// two cluster workers over loopback TCP, each stepping its shards inline. A
// single driver ticks back to back; before each tick it ingests about half
// a stimulus per agent through Server.IngestBatch, in batches of 64.
const (
	ciWorkers   = 2
	ciPerTick   = agents / 2
	ciBatchSize = 64
	ciRateTicks = 100 // ticks per batch for steps_per_s and tick_p50_ms

	// A run measures a fixed number of ticks: ciTicksPerSecond per second of
	// --seconds (about that long on the 2-core machine the benchmark was
	// defined on), rounded to whole batches. Ingest grows the population's
	// state every tick, so a fixed tick count keeps state size and memory
	// independent of how fast the program ticks. The window only caps the
	// run, at ciCap times its length.
	ciTicksPerSecond = 140
	ciCap            = 3
)

// ciTicks is the number of measured ticks for a window.
func ciTicks(window time.Duration) int {
	batches := math.Round(window.Seconds() * ciTicksPerSecond / ciRateTicks)
	return ciRateTicks * max(1, int(batches))
}

type clusterRig struct {
	workers []*cluster.Worker
	served  []chan error
	cl      *cluster.Client
	reg     *obs.Registry
	s       *serve.Server
	eng     *population.Engine
	tt      *timedTransport // traced only
}

func newClusterRig(seed int64, tr *tracer) (*clusterRig, error) {
	r := &clusterRig{reg: obs.NewRegistry()}
	cw := []cluster.Workload{cluster.Workload(gossip[0])}
	addrs := make([]string, 0, ciWorkers)
	for i := 0; i < ciWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		w, err := cluster.NewWorker(ln, nil, cw)
		if err != nil {
			ln.Close()
			r.close()
			return nil, err
		}
		w.SetLogger(quiet)
		done := make(chan error, 1)
		go func() { done <- w.Serve() }()
		r.workers = append(r.workers, w)
		r.served = append(r.served, done)
		addrs = append(addrs, w.Addr())
	}
	cl, err := cluster.Dial(addrs, 10*time.Second)
	if err != nil {
		r.close()
		return nil, err
	}
	r.cl = cl
	cl.Instrument(r.reg)
	opts := serve.Options{Workloads: gossip, Registry: r.reg, Logger: quiet}
	opts.UseCluster(cl)
	if tr == nil {
		build := opts.NewEngine
		opts.NewEngine = func(sp serve.Spec, cfg population.Config) (*population.Engine, error) {
			eng, err := build(sp, cfg)
			r.eng = eng
			return eng, err
		}
	} else {
		opts.NewEngine = func(sp serve.Spec, cfg population.Config) (*population.Engine, error) {
			t, err := cl.NewTransport(cluster.Spec{ID: sp.ID, Workload: sp.Workload, Agents: sp.Agents, Shards: sp.Shards, Seed: sp.Seed})
			if err != nil {
				return nil, err
			}
			r.tt = newTimedTransport(t, tr)
			r.tt.owner = t.Owner()
			pr := &probe{reg: r.reg}
			for _, a := range cl.Addrs() {
				r.tt.rpc = append(r.tt.rpc, pr.histogram(metricRPC, helpRPC, obs.L("worker", a), obs.L("type", "tick")))
			}
			if pr.err != nil {
				t.Close()
				return nil, pr.err
			}
			eng, err := population.NewWithTransport(cfg, r.tt)
			r.eng = eng
			return eng, err
		}
	}
	s, err := serve.New(opts)
	if err != nil {
		r.close()
		return nil, err
	}
	r.s = s
	if err := s.Add(spec(seed)); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close shuts the rig down; closing twice is harmless.
func (r *clusterRig) close() {
	if r.eng != nil {
		r.eng.Close()
	}
	if r.cl != nil {
		r.cl.Close()
	}
	for i, w := range r.workers {
		w.Close()
		<-r.served[i]
	}
	r.eng, r.cl, r.workers = nil, nil, nil
}

func runClusterIngest(l *leg) (*legResult, error) {
	rig, setup, err := timeSetups(func() (*clusterRig, error) { return newClusterRig(l.seed, l.tr) }, (*clusterRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	rng := rand.New(rand.NewSource(l.seed))
	res := newLegResult()
	// accepted records, per generated batch in order, whether the program
	// took it; the oracle redraws the batches from the seed.
	var accepted []bool
	var ph phases
	var bytesIO []*obs.Counter
	if l.tr != nil {
		pr := &probe{reg: rig.reg}
		ph = pr.phases(popID)
		for _, a := range rig.cl.Addrs() {
			for _, dir := range []string{"in", "out"} {
				bytesIO = append(bytesIO, pr.counter(metricRPCByte, helpRPCBytes, obs.L("worker", a), obs.L("dir", dir)))
			}
		}
		if pr.err != nil {
			return nil, pr.err
		}
	}
	sumBytes := func() (n int64) {
		for _, c := range bytesIO {
			n += c.Value()
		}
		return n
	}

	var ingestLat, tickLat, lateness, maxErrs []float64
	var attempted, shed int64
	var stepRecs []stepRec
	var routes []float64
	prevDone := time.Now()
	// tick runs one driver iteration: ingest, then advance. Timed samples
	// are kept only when measure is set (not during warm-up).
	tick := func(measure bool) error {
		for _, b := range ingestBatches(rng, agents, ciPerTick, ciBatchSize) {
			start := time.Now()
			_, err := rig.s.IngestBatch(popID, b)
			end := time.Now()
			if measure {
				attempted++
				ingestLat = append(ingestLat, ms(end.Sub(start)))
				lateness = append(lateness, ms(start.Sub(prevDone)))
			}
			prevDone = end
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				if measure {
					shed++
				}
			case err != nil:
				return err
			}
			accepted = append(accepted, err == nil)
		}
		var before phaseMark
		nSteps := 0
		if rig.tt != nil {
			before = ph.mark()
			nSteps = len(rig.tt.steps)
		}
		tr := l.tr // warm-up ticks get no advance span
		if !measure {
			tr = nil
		}
		start := time.Now()
		idx := tr.open("advance", int64(rig.eng.Ticks()), -1, start)
		if rig.tt != nil {
			rig.tt.parent = idx
		}
		_, err := rig.s.Advance(popID, 1)
		end := time.Now()
		tr.close(idx, end)
		if err != nil {
			return err
		}
		if measure {
			attempted++
			tickLat = append(tickLat, ms(end.Sub(start)))
			lateness = append(lateness, ms(start.Sub(prevDone)))
			if rig.tt != nil {
				d := ph.mark().sub(before)
				recs := rig.tt.steps[nSteps:]
				stepRecs = append(stepRecs, recs...)
				routes = append(routes, nsMs(d.route))
				maxErrs = append(maxErrs, decompErr(recs[0].wall, d, int64(end.Sub(start)), res))
			}
		}
		prevDone = end
		return nil
	}
	for i := 0; i < warmTicks; i++ {
		if err := tick(false); err != nil {
			return nil, err
		}
	}
	bytes0 := sumBytes()
	cpu0 := cpuTime()
	start := time.Now()
	prevDone = start
	ticks := 0
	var batchSecs []float64
	batchStart := start
	want := ciTicks(l.window)
	for ticks < want && time.Since(start) < ciCap*l.window {
		if err := tick(true); err != nil {
			return nil, err
		}
		ticks++
		if ticks%ciRateTicks == 0 {
			now := time.Now()
			batchSecs = append(batchSecs, now.Sub(batchStart).Seconds())
			batchStart = now
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	bytesWindow := sumBytes() - bytes0

	res.attempted, res.failed = attempted, shed
	res.lateness = lateness
	res.e2e["setup_s"] = setup
	res.e2e["steps_per_s"] = batchRate(ciRateTicks, agents, batchSecs)
	putMedian(res.e2e, "tick_p50_ms", batchMeans(tickLat, ciRateTicks))
	putMedian(res.e2e, "op_p50_ms", ingestLat)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.putTail(res.e2e, "tick_p99_ms", tickLat, 0.99)
	res.e2e["failed_ratio"] = ratio(float64(shed), float64(attempted))
	res.check(len(batchSecs) > 0, "window too short for %d ticks", ciRateTicks)
	if ticks < want {
		res.notes = append(res.notes, fmt.Sprintf("stopped at the %v cap after %d of %d ticks", ciCap*l.window, ticks, want))
	}
	res.notes = append(res.notes, fmt.Sprintf("window %.2fs, %d ticks, %d ingest batches, cpu busy %.2f of %d cores",
		wall.Seconds(), ticks, len(ingestLat), cpu.Seconds()/wall.Seconds()/float64(cpuCount()), cpuCount()))

	// Output check (outside the window): the cluster's final state must be
	// byte-identical to a single-process engine fed the same accepted
	// ingest. The cluster is shut down before the oracle runs, so the two
	// populations are never in memory together.
	snap, err := finalSnapshot(rig.eng, rig.tt)
	if err != nil {
		return nil, err
	}
	if l.tr != nil {
		codecLayers(res.layer, snap, rig.tt, res)
	}
	got, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		return nil, err
	}
	rig.close()
	if err := checkOracle(got, accepted, warmTicks+ticks, l.seed, res); err != nil {
		return nil, err
	}

	if l.tr == nil {
		return res, nil
	}
	layer := res.layer
	layer["process.cpu_busy_ratio"] = cpu.Seconds() / wall.Seconds() / float64(cpuCount())
	layer["check.tick_decomp_max_err_ms"] = maxOf(maxErrs)
	stepLayers(layer, stepRecs, ciWorkers, agents)
	putMedian(layer, "population.route_ms", routes)
	putMedian(layer, "serve.advance_overhead_ms", advanceOverheads(l.tr.snapshot(), routes, 1))
	layer["cluster.bytes_per_tick"] = float64(bytesWindow) / float64(ticks)
	layer["serve.shed_ratio"] = ratio(float64(shed), float64(len(ingestLat)))
	return res, nil
}

// checkOracle replays the accepted ingest into a single-process engine of
// the same population for the same number of ticks, and compares encoded
// snapshots with bytes.Equal (the S3 property). The batches are drawn again
// from the seed; accepted says which of them the program took. Items
// without a time are stamped with the engine's tick at enqueue, as serve
// does.
func checkOracle(got []byte, accepted []bool, ticks int, seed int64, r *legResult) error {
	pool := runner.New(2)
	defer pool.Close()
	ref := population.New(experiments.S2Config(agents, shards, seed, pool))
	rng := rand.New(rand.NewSource(seed))
	k := 0
	for t := 0; t < ticks; t++ {
		for _, b := range ingestBatches(rng, agents, ciPerTick, ciBatchSize) {
			k++
			if !accepted[k-1] {
				continue
			}
			for _, it := range b {
				st := it.Stim
				if !it.HasTime {
					st.Time = float64(ref.Ticks())
				}
				if err := ref.Enqueue(it.To, st); err != nil {
					return err
				}
			}
		}
		ref.Tick()
	}
	want, err := ref.Snapshot()
	if err != nil {
		return err
	}
	wantB, err := checkpoint.EncodeBytes(want, nil)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(got, wantB), "cluster final snapshot (%d bytes) differs from the single-process oracle's (%d bytes) after %d ticks",
		len(got), len(wantB), ticks)
	return nil
}
