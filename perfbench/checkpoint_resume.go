package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
	"sacs/internal/serve"
)

// checkpoint-resume: the population runs in-process with a checkpoint
// directory. The run is a sequence of periods, each starting from the same
// snapshot at tick warmTicks: the driver ticks back to back, calls
// Server.Checkpoint every crEvery ticks, and after crResumeEvery
// checkpoints resumes a fresh Server from the file just written.
const (
	crEvery       = 50
	crResumeEvery = 2
	crKeep        = 3
)

// ckptHost builds servers over one checkpoint directory. Its hooks route
// engine construction through the decorator on traced legs and remember
// the engine (and, on resume, when the program reached the hook).
type ckptHost struct {
	dir  string
	pool *runner.Pool
	reg  *obs.Registry
	tr   *tracer

	eng       *population.Engine
	tt        *timedTransport
	parent    int       // the driver's open resume span (traced)
	entered   time.Time // when the last RestoreEngine hook was entered
	construct []float64 // ms to build a resumed engine's agents (traced)
}

func (h *ckptHost) options() serve.Options {
	opts := serve.Options{Pool: h.pool, Dir: h.dir, Keep: crKeep, Workloads: gossip, Registry: h.reg, Logger: quiet}
	opts.RestoreEngine = func(_ serve.Spec, cfg population.Config, snap *population.Snapshot) (*population.Engine, error) {
		h.entered = time.Now()
		if h.tr == nil {
			eng, err := population.Restore(cfg, snap)
			h.eng = eng
			return eng, err
		}
		lt := population.NewLocalTransport(cfg, 0, cfg.Normalized().Shards)
		end := time.Now()
		h.tr.record("construct", int64(snap.Tick), h.parent, h.entered, end)
		h.construct = append(h.construct, ms(end.Sub(h.entered)))
		h.tt = h.newTimed(lt)
		h.tt.parent, h.tt.tick = h.parent, int64(snap.Tick)
		eng, err := population.RestoreWithTransport(cfg, h.tt, snap)
		h.eng = eng
		return eng, err
	}
	if h.tr != nil {
		opts.NewEngine = func(_ serve.Spec, cfg population.Config) (*population.Engine, error) {
			h.tt = h.newTimed(population.NewLocalTransport(cfg, 0, cfg.Normalized().Shards))
			eng, err := population.NewWithTransport(cfg, h.tt)
			h.eng = eng
			return eng, err
		}
	}
	return opts
}

// newTimed wraps a transport, carrying the step and export records of the
// engine it replaces so a leg's records survive resumes.
func (h *ckptHost) newTimed(t population.Transport) *timedTransport {
	tt := newTimedTransport(t, h.tr)
	if h.tt != nil {
		tt.steps, tt.exports, tt.installs = h.tt.steps, h.tt.exports, h.tt.installs
	}
	return tt
}

func (h *ckptHost) newServer() (*serve.Server, error) {
	return serve.New(h.options())
}

type ckptSample struct {
	wall, export float64 // ms
	allocBytes   uint64
	fileBytes    int64
	span         interval
	phase        phaseMark // engine phases across the call
	serveNs      int64     // the program's own sacs_serve_checkpoint_seconds across the call
}

func runCheckpointResume(l *leg) (*legResult, error) {
	type rig struct {
		h *ckptHost
		s *serve.Server
	}
	n := 0
	build := func() (rig, error) {
		n++
		dir := fmt.Sprintf("%s/ckpt-%d", l.scratch, n)
		h := &ckptHost{dir: dir, pool: runner.New(2), reg: obs.NewRegistry(), tr: l.tr, parent: -1}
		s, err := h.newServer()
		if err == nil {
			err = s.Add(spec(l.seed))
		}
		if err != nil {
			h.pool.Close()
			return rig{}, err
		}
		return rig{h, s}, nil
	}
	teardown := func(r rig) {
		r.h.pool.Close()
		os.RemoveAll(r.h.dir)
	}
	r, setup, err := timeSetups(build, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown(r)
	h, s := r.h, r.s
	if _, err := s.Advance(popID, warmTicks); err != nil {
		return nil, err
	}
	// Every period starts from this snapshot, so every period checkpoints
	// and resumes the same tick range: state size, and with it checkpoint
	// cost and memory, does not depend on how many periods a run gets
	// through.
	basePath, err := s.Checkpoint(popID)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(l.scratch, "base.ckpt")
	if err := os.Rename(basePath, base); err != nil {
		return nil, err
	}
	// reset hosts the population at the base snapshot on a fresh server
	// whose checkpoint directory holds only the base file.
	reset := func() (*serve.Server, error) {
		if err := os.RemoveAll(h.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(h.dir, 0o755); err != nil {
			return nil, err
		}
		if err := os.Link(base, basePath); err != nil {
			return nil, err
		}
		h.parent = l.tr.open("reset", warmTicks, -1, time.Now())
		defer func() {
			l.tr.close(h.parent, time.Now())
			h.parent = -1
		}()
		fresh, err := h.newServer()
		if err == nil {
			err = fresh.Resume(spec(l.seed))
		}
		return fresh, err
	}

	var ph phases
	var serveCkpt *obs.Histogram
	if l.tr != nil {
		pr := &probe{reg: h.reg}
		ph = pr.phases(popID)
		serveCkpt = pr.histogram("sacs_serve_checkpoint_seconds", helpCkpt, obs.L("pop", popID))
		if pr.err != nil {
			return nil, pr.err
		}
	}

	res := newLegResult()
	var tickLat, ckptLat, resumeLat, readDecode, construct, installs, lateness []float64
	var ckpts []ckptSample
	var stepRecs []stepRec
	var routes, tickErrs []float64
	// steps_per_s and tick_p50_ms are measured over whole periods
	// (crEvery·crResumeEvery ticks with their checkpoints and the resume).
	// Per period, GC work left by the checkpoints lands on a similar share
	// of ticks; per tick it decides which side of the median a tick falls
	// on. The reset before a period and the output check after it are
	// excluded from the window clock.
	var periodSecs []float64
	var excluded time.Duration
	start := time.Now()
	cpu0 := cpuTime()
	for time.Since(start)-excluded < l.window {
		x0 := time.Now()
		if s, err = reset(); err != nil {
			return nil, err
		}
		// Collect the previous period's garbage now, so its GC work does
		// not spill into this period's ticks.
		runtime.GC()
		excluded += time.Since(x0)

		periodStart := time.Now()
		prevDone := periodStart
		var path string
		for c := 0; c < crResumeEvery; c++ {
			for t := 0; t < crEvery; t++ {
				var before phaseMark
				nSteps := 0
				if h.tt != nil {
					before = ph.mark()
					nSteps = len(h.tt.steps)
				}
				t0 := time.Now()
				lateness = append(lateness, ms(t0.Sub(prevDone)))
				idx := l.tr.open("advance", int64(h.eng.Ticks()), -1, t0)
				if h.tt != nil {
					h.tt.parent = idx
				}
				if _, err := s.Advance(popID, 1); err != nil {
					return nil, err
				}
				t1 := time.Now()
				l.tr.close(idx, t1)
				prevDone = t1
				tickLat = append(tickLat, ms(t1.Sub(t0)))
				if h.tt != nil {
					d := ph.mark().sub(before)
					recs := h.tt.steps[nSteps:]
					stepRecs = append(stepRecs, recs...)
					routes = append(routes, nsMs(d.route))
					tickErrs = append(tickErrs, decompErr(recs[0].wall, d, int64(t1.Sub(t0)), res))
				}
			}

			// A checkpoint.
			var c ckptSample
			var before phaseMark
			var serve0 int64
			nExports := 0
			if h.tt != nil {
				before = ph.mark()
				serve0 = serveCkpt.Sum()
				nExports = len(h.tt.exports)
			}
			alloc0 := allocBytes()
			t0 := time.Now()
			lateness = append(lateness, ms(t0.Sub(prevDone)))
			idx := l.tr.open("checkpoint", int64(h.eng.Ticks()), -1, t0)
			if h.tt != nil {
				h.tt.parent, h.tt.tick = idx, int64(h.eng.Ticks())
			}
			if path, err = s.Checkpoint(popID); err != nil {
				return nil, err
			}
			t1 := time.Now()
			l.tr.close(idx, t1)
			prevDone = t1
			c.wall = ms(t1.Sub(t0))
			ckptLat = append(ckptLat, c.wall)
			if h.tt != nil {
				c.allocBytes = allocBytes() - alloc0
				c.phase = ph.mark().sub(before)
				c.serveNs = serveCkpt.Sum() - serve0
				c.export = h.tt.exports[nExports]
				c.span = interval{l.tr.at(t0), l.tr.at(t1)}
				if fi, err := os.Stat(path); err == nil {
					c.fileBytes = fi.Size()
				}
			}
			ckpts = append(ckpts, c)
		}

		// A resume into a fresh server from the file just written.
		fresh, err := h.newServer()
		if err != nil {
			return nil, err
		}
		nConstruct, nInstall := len(h.construct), 0
		if h.tt != nil {
			nInstall = len(h.tt.installs)
		}
		t0 := time.Now()
		lateness = append(lateness, ms(t0.Sub(prevDone)))
		h.parent = l.tr.open("resume", int64(h.eng.Ticks()), -1, t0)
		if err := fresh.Resume(spec(l.seed)); err != nil {
			return nil, err
		}
		t1 := time.Now()
		l.tr.close(h.parent, t1)
		h.parent = -1
		resumeLat = append(resumeLat, ms(t1.Sub(t0)))
		readDecode = append(readDecode, ms(h.entered.Sub(t0)))
		if h.tt != nil {
			construct = append(construct, h.construct[nConstruct:]...)
			installs = append(installs, h.tt.installs[nInstall:]...)
		}
		periodSecs = append(periodSecs, t1.Sub(periodStart).Seconds())
		s = fresh

		// Output check: the resumed engine re-snapshots to the file's bytes.
		x0 = time.Now()
		checkResumed(h.eng, path, res)
		excluded += time.Since(x0)
	}
	wall := time.Since(start) - excluded
	cpu := cpuTime() - cpu0

	res.attempted = int64(len(tickLat) + len(ckptLat) + len(resumeLat))
	res.lateness = lateness
	res.e2e["setup_s"] = setup
	res.e2e["steps_per_s"] = batchRate(crEvery*crResumeEvery, agents, periodSecs)
	putMedian(res.e2e, "tick_p50_ms", batchMeans(tickLat, crEvery*crResumeEvery))
	// A period's two checkpoints encode different ticks and take about 90
	// and 120 ms on a 2-core machine; a median over calls would sit in the
	// gap between the two groups, so the gated figure is the median of the
	// period means.
	putMedian(res.e2e, "op_p50_ms", batchMeans(ckptLat, crResumeEvery))
	res.e2e["peak_rss_mb"] = peakRSSMB()
	putMedian(res.e2e, "checkpoint_p50_ms", ckptLat)
	putMedian(res.e2e, "resume_p50_ms", resumeLat)
	res.e2e["failed_ratio"] = 0
	res.notes = append(res.notes, fmt.Sprintf("window %.2fs (+%.2fs resets and checks), %d periods, %d ticks, %d checkpoints, %d resumes, cpu busy %.2f of %d cores",
		wall.Seconds(), excluded.Seconds(), len(periodSecs), len(tickLat), len(ckptLat), len(resumeLat),
		cpu.Seconds()/(wall+excluded).Seconds()/float64(cpuCount()), cpuCount()))

	if l.tr == nil {
		return res, nil
	}
	layer := res.layer
	layer["process.cpu_busy_ratio"] = cpu.Seconds() / (wall + excluded).Seconds() / float64(cpuCount())
	layer["check.tick_decomp_max_err_ms"] = maxOf(tickErrs)
	stepLayers(layer, stepRecs, h.pool.Workers(), agents)
	putMedian(layer, "population.route_ms", routes)
	spans := l.tr.snapshot()
	putMedian(layer, "serve.advance_overhead_ms", advanceOverheads(spans, routes, 1))
	putMedian(layer, "population.construct_ms", construct)
	putMedian(layer, "population.install_ms", installs)
	putMedian(layer, "checkpoint.read_decode_ms", readDecode)
	// Checkpoint wall minus export: the checkpoint span's self time.
	putMedian(layer, "checkpoint.write_ms", selfTimes(spans, "checkpoint"))
	var amps, ckptErrs []float64
	for _, c := range ckpts {
		if c.fileBytes > 0 {
			amps = append(amps, float64(c.allocBytes)/float64(c.fileBytes))
		}
		ckptErrs = append(ckptErrs, ckptDecompErr(c, res))
	}
	putMedian(layer, "checkpoint.alloc_amplification", amps)
	layer["check.ckpt_decomp_max_err_ms"] = maxOf(ckptErrs)
	// The engine resumed at the end of the last period: every run encodes
	// the same tick.
	snap, err := finalSnapshot(h.eng, h.tt)
	if err != nil {
		return nil, err
	}
	codecLayers(layer, snap, h.tt, res)
	return res, nil
}

// ckptDecompErr checks that a Checkpoint's wall time splits into
//
//	export (timed by the decorator around Transport.Export)
//	+ write (the program's own checkpoint timer minus its snapshot phase:
//	  encoding, CRC, file write and fsync)
//	+ the rest of the call (locking, pruning, publishing the view)
//
// within ckptTolNs + tolShare·wall. As with ticks, the decorator and the
// engine's snapshot phase must agree for the parts to add up. It returns
// the error in ms.
func ckptDecompErr(c ckptSample, r *legResult) float64 {
	wallNs := c.span.end - c.span.start
	write := c.serveNs - c.phase.snapshot
	rest := wallNs - c.serveNs
	sum := int64(c.export*1e6) + write + rest
	errNs := float64(sum - wallNs)
	if errNs < 0 {
		errNs = -errNs
	}
	tol := ckptTolNs + tolShare*float64(wallNs)
	r.check(errNs <= tol, "checkpoint decomposition: export %.3f + write %.3f + rest %.3f ms vs Checkpoint %.3f ms (tolerance %.3f ms)",
		c.export, nsMs(write), nsMs(rest), nsMs(wallNs), tol/1e6)
	r.check(rest >= -int64(tol), "checkpoint decomposition: program timer %.3f ms exceeds Checkpoint wall %.3f ms", nsMs(c.serveNs), nsMs(wallNs))
	return errNs / 1e6
}

// checkResumed requires a resumed engine to re-snapshot to exactly the
// bytes of the file it was resumed from.
func checkResumed(eng *population.Engine, path string, r *legResult) {
	file, err := os.ReadFile(path)
	if err != nil {
		r.check(false, "reading %s: %v", path, err)
		return
	}
	_, meta, err := checkpoint.DecodeBytes(file)
	if err != nil {
		r.check(false, "decoding %s: %v", path, err)
		return
	}
	snap, err := eng.Snapshot()
	if err != nil {
		r.check(false, "snapshot of resumed engine: %v", err)
		return
	}
	again, err := checkpoint.EncodeBytes(snap, meta)
	r.check(err == nil && bytes.Equal(again, file), "resumed engine does not re-snapshot to the bytes of %s", path)
}
