package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
	"sacs/internal/serve"
)

// serve-mixed: serve.Server.Handler() on a loopback listener hosts the
// population on a 2-worker pool. Two client connections send an open-loop,
// seeded mix of status reads, explains and ingest batches while a driver
// goroutine calls Server.Advance(id, 10) on a fixed cadence.
var mixLoad = mixParams{
	rate:         750,
	conns:        2,
	explainShare: 0.15,
	ingestShare:  0.15,
	batch:        8,
	hot:          32,
	hotShare:     0.8,
	advanceEvery: 200 * time.Millisecond,
	pop:          popID,
	agents:       agents,
}

const mixAdvanceN = 10

type mixRig struct {
	pool *runner.Pool
	reg  *obs.Registry
	s    *serve.Server
	tt   *timedTransport // traced only
	eng  *population.Engine
	hs   *http.Server
	done chan error
	base string
}

func newMixRig(seed int64, tr *tracer) (*mixRig, error) {
	r := &mixRig{pool: runner.New(2), reg: obs.NewRegistry()}
	opts := serve.Options{Pool: r.pool, Workloads: gossip, Registry: r.reg, Logger: quiet}
	if tr != nil {
		opts.NewEngine = func(_ serve.Spec, cfg population.Config) (*population.Engine, error) {
			r.tt = newTimedTransport(population.NewLocalTransport(cfg, 0, cfg.Normalized().Shards), tr)
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
	handler := s.Handler()
	if tr != nil {
		p := &probe{reg: r.reg}
		hits := p.counter("sacs_serve_explain_cache_hits_total", helpHits, obs.L("pop", popID))
		if p.err != nil {
			r.close()
			return nil, p.err
		}
		handler = middleware(handler, tr, hits)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: handler}
	r.done = make(chan error, 1)
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, nil
}

func (r *mixRig) close() {
	if r.hs != nil {
		r.hs.Close()
		<-r.done
	}
	r.pool.Close()
}

// mixSample is one completed request.
type mixSample struct {
	kind             opKind
	id               int64
	latency, service float64 // ms from due, ms from send
	lateness         float64 // ms the generator itself ran late
	code             int
}

// advanceRec is one Advance batch of the driver goroutine.
type advanceRec struct {
	latency, service float64 // ms from due, ms from call
	lateness         float64 // ms the driver itself ran late
	span             interval
	phase            phaseMark // program's own phase counters across the call (traced)
	steps            []stepRec // the decorator's records of the batch's ticks (traced)
}

func runServeMixed(l *leg) (*legResult, error) {
	rig, setup, err := timeSetups(func() (*mixRig, error) { return newMixRig(l.seed, l.tr) }, (*mixRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	// The schedule is drawn after the set-ups, so its memory is not live
	// while they are timed.
	p := mixLoad
	p.window = l.window
	sched, err := newMixSchedule(l.seed, p)
	if err != nil {
		return nil, err
	}
	if _, err := rig.s.Advance(popID, warmTicks); err != nil {
		return nil, err
	}
	var ph phases
	var counters struct{ hits, renders, during, shed *obs.Counter }
	if l.tr != nil {
		pr := &probe{reg: rig.reg}
		ph = pr.phases(popID)
		pop := obs.L("pop", popID)
		counters.hits = pr.counter("sacs_serve_explain_cache_hits_total", helpHits, pop)
		counters.renders = pr.counter("sacs_serve_explain_renders_total", helpRenders, pop)
		counters.during = pr.counter("sacs_serve_view_reads_during_tick_total", helpDuring, pop)
		counters.shed = pr.counter("sacs_serve_shed_total", helpShed, pop)
		if pr.err != nil {
			return nil, pr.err
		}
	}
	type mark struct{ hits, renders, during, shed int64 }
	readMarks := func() mark {
		if l.tr == nil {
			return mark{}
		}
		return mark{counters.hits.Value(), counters.renders.Value(), counters.during.Value(), counters.shed.Value()}
	}

	clients := make([]*http.Client, p.conns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		// Open the connection before the window so no request pays the dial.
		if err := drain(clients[i].Get(rig.base + "/healthz")); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	perConn := make([][]mixRequest, p.conns)
	for _, rq := range sched.reqs {
		perConn[rq.conn] = append(perConn[rq.conn], rq)
	}

	res := newLegResult()
	var mu sync.Mutex // guards res.problems from the client goroutines
	samples := make([][]mixSample, p.conns)
	var advances []advanceRec
	var advErr error

	m0 := readMarks()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples[c] = driveConn(rig.base, clients[c], perConn[c], start, l.tr, func(msg string) {
				mu.Lock()
				defer mu.Unlock()
				res.problems = append(res.problems, msg)
			})
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		advances, advErr = driveAdvances(rig, sched.advances, start, l.tr, ph)
	}()
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	m1 := readMarks()
	if advErr != nil {
		return nil, advErr
	}

	// End-to-end.
	var all, lateness []float64
	byKind := make([][]float64, opKinds)
	var attempted, shed int64
	for _, ss := range samples {
		for _, s := range ss {
			attempted++
			if s.code == http.StatusTooManyRequests {
				shed++
			}
			all = append(all, s.latency)
			byKind[s.kind] = append(byKind[s.kind], s.latency)
			lateness = append(lateness, s.lateness)
		}
	}
	var advLat, tickLat, advSecs []float64
	for _, a := range advances {
		attempted++
		lateness = append(lateness, a.lateness)
		advLat = append(advLat, a.latency)
		tickLat = append(tickLat, a.latency/mixAdvanceN)
		advSecs = append(advSecs, a.service/1e3)
	}
	res.attempted, res.failed = attempted, shed
	res.lateness = lateness
	res.e2e["setup_s"] = setup
	res.e2e["steps_per_s"] = batchRate(mixAdvanceN, agents, advSecs)
	putMedian(res.e2e, "tick_p50_ms", tickLat)
	putMedian(res.e2e, "op_p50_ms", all)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.putTail(res.e2e, "advance_p99_ms", advLat, 0.99)
	for k := opKind(0); k < opKinds; k++ {
		putMedian(res.e2e, opNames[k]+"_p50_ms", byKind[k])
		res.putTail(res.e2e, opNames[k]+"_p99_ms", byKind[k], 0.99)
	}
	res.e2e["failed_ratio"] = ratio(float64(shed), float64(attempted))
	res.check(len(advances) == len(sched.advances), "ran %d of %d advances", len(advances), len(sched.advances))
	res.check(attempted > 0, "no requests completed")
	res.notes = append(res.notes, fmt.Sprintf("window %.2fs, %d requests, %d advances, cpu busy %.2f of %d cores",
		wall.Seconds(), len(all), len(advances), cpu.Seconds()/wall.Seconds()/float64(cpuCount()), cpuCount()))

	if l.tr == nil {
		return res, nil
	}
	// Per-layer.
	layer := res.layer
	layer["process.cpu_busy_ratio"] = cpu.Seconds() / wall.Seconds() / float64(cpuCount())
	var stepRecs []stepRec
	var routes, routeTotals []float64
	var maxErr float64
	for _, a := range advances {
		var stepNs int64
		for _, s := range a.steps {
			stepNs += s.wall
		}
		stepRecs = append(stepRecs, a.steps...)
		routes = append(routes, nsMs(a.phase.route)/float64(len(a.steps)))
		routeTotals = append(routeTotals, nsMs(a.phase.route))
		maxErr = max(maxErr, decompErr(stepNs, a.phase, a.span.end-a.span.start, res))
	}
	layer["check.tick_decomp_max_err_ms"] = maxErr
	stepLayers(layer, stepRecs, rig.pool.Workers(), agents)
	putMedian(layer, "population.route_ms", routes)
	recorded := l.tr.snapshot()
	putMedian(layer, "serve.advance_overhead_ms", advanceOverheads(recorded, routeTotals, mixAdvanceN))

	spans := byName(recorded)
	var blockers []interval
	for _, s := range spans["advance"] {
		blockers = append(blockers, s.interval())
	}
	handler := map[int64]float64{}
	var locked []interval
	for _, name := range []string{"handler.status", "handler.explain", "handler.explain_miss", "handler.ingest"} {
		for _, s := range spans[name] {
			handler[s.ID] = nsMs(s.dur())
			if name == "handler.explain_miss" || name == "handler.ingest" {
				locked = append(locked, s.interval())
			}
		}
	}
	for k := opKind(0); k < opKinds; k++ {
		var ds []float64
		for _, name := range []string{"handler." + opNames[k], "handler." + opNames[k] + "_miss"} {
			for _, s := range spans[name] {
				ds = append(ds, nsMs(s.dur()))
			}
		}
		putMedian(layer, "serve.handler_ms."+opNames[k]+".p50", ds)
		res.putTail(layer, "serve.handler_ms."+opNames[k]+".p99", ds, 0.99)
	}
	var httpOver []float64
	for _, ss := range samples {
		for _, s := range ss {
			if h, ok := handler[s.id]; ok {
				httpOver = append(httpOver, s.service-h)
			}
		}
	}
	putMedian(layer, "serve.http_overhead_ms", httpOver)
	layer["serve.lock_overlap_ratio"] = overlapShare(locked, blockers)
	layer["serve.explain_hit_ratio"] = hitRatio(m1.hits-m0.hits, m1.renders-m0.renders)
	layer["serve.reads_during_tick"] = float64(m1.during - m0.during)
	layer["serve.shed_ratio"] = ratio(float64(m1.shed-m0.shed), float64(len(byKind[opIngest])*p.batch))
	snap, err := finalSnapshot(rig.eng, rig.tt)
	if err != nil {
		return nil, err
	}
	codecLayers(layer, snap, rig.tt, res)
	return res, nil
}

// driveConn sends one connection's share of the schedule, each request at
// its due time or as soon as the previous one on the connection returns.
func driveConn(base string, client *http.Client, reqs []mixRequest, start time.Time, tr *tracer, fail func(string)) []mixSample {
	out := make([]mixSample, 0, len(reqs))
	prevDone := start
	viewTick := -1
	for _, rq := range reqs {
		due := start.Add(rq.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		method, body := http.MethodGet, io.Reader(nil)
		if rq.kind == opIngest {
			method, body = http.MethodPost, bytes.NewReader(rq.body)
		}
		req, err := http.NewRequest(method, base+rq.path, body)
		if err != nil {
			fail(err.Error())
			return out
		}
		req.Header.Set(reqHeader, strconv.FormatInt(rq.id, 10))
		sendAt := time.Now()
		resp, err := client.Do(req)
		var payload []byte
		if err == nil {
			payload, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		doneAt := time.Now()
		prevDone = doneAt
		if err != nil {
			fail(fmt.Sprintf("request %d %s: %v", rq.id, rq.path, err))
			return out
		}
		tr.record("client."+opNames[rq.kind], rq.id, -1, sendAt, doneAt)
		out = append(out, mixSample{
			kind: rq.kind, id: rq.id, code: resp.StatusCode,
			latency:  ms(doneAt.Sub(due)),
			service:  ms(doneAt.Sub(sendAt)),
			lateness: ms(sendAt.Sub(ready)),
		})
		// Output checks: 2xx or 429 only, non-empty explains, and the
		// view tick a connection sees never goes backwards.
		if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusTooManyRequests {
			fail(fmt.Sprintf("request %d %s %s: status %d: %s", rq.id, method, rq.path, resp.StatusCode, payload))
			continue
		}
		tick := -1
		switch rq.kind {
		case opExplain:
			if len(payload) == 0 {
				fail(fmt.Sprintf("request %d: empty explain body", rq.id))
			}
			if tick, err = strconv.Atoi(resp.Header.Get("X-Sacs-View-Tick")); err != nil {
				fail(fmt.Sprintf("request %d: bad X-Sacs-View-Tick: %v", rq.id, err))
			}
		case opStatus:
			var st struct {
				ViewTick int `json:"view_tick"`
			}
			if err := json.Unmarshal(payload, &st); err != nil {
				fail(fmt.Sprintf("request %d: bad status body: %v", rq.id, err))
			}
			tick = st.ViewTick
		}
		if tick >= 0 {
			if tick < viewTick {
				fail(fmt.Sprintf("request %d: view tick went back from %d to %d", rq.id, viewTick, tick))
			}
			viewTick = tick
		}
	}
	return out
}

// driveAdvances calls Server.Advance(id, 10) at each due time.
func driveAdvances(rig *mixRig, dues []time.Duration, start time.Time, tr *tracer, ph phases) ([]advanceRec, error) {
	out := make([]advanceRec, 0, len(dues))
	prevDone := start
	for k, off := range dues {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		var before phaseMark
		nSteps := 0
		if tr != nil {
			before = ph.mark()
			nSteps = len(rig.tt.steps)
		}
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		call := time.Now()
		idx := tr.open("advance", int64(warmTicks+k*mixAdvanceN), -1, call)
		if rig.tt != nil {
			rig.tt.parent = idx
		}
		_, err := rig.s.Advance(popID, mixAdvanceN)
		end := time.Now()
		tr.close(idx, end)
		if err != nil {
			return out, err
		}
		prevDone = end
		rec := advanceRec{latency: ms(end.Sub(due)), service: ms(end.Sub(call)), lateness: ms(call.Sub(ready))}
		if tr != nil {
			rec.phase = ph.mark().sub(before)
			rec.span = interval{tr.at(call), tr.at(end)}
			rec.steps = rig.tt.steps[nSteps:]
		}
		out = append(out, rec)
	}
	return out, nil
}

func drain(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
