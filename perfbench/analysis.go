package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/population"
)

func cpuCount() int { return runtime.NumCPU() }

// Decomposition tolerances. The engine times a transport Step from just
// before the call to just after it, so its step+barrier phases include the
// decorator's own bookkeeping and any preemption at those two edges.
const (
	tickTolNs  = 250_000 // plus tolShare of the Advance wall time
	ckptTolNs  = 2_000_000
	tolShare   = 0.05
	codecReps  = 3
	bytesPerMB = 1e6
)

// batchRate is agent steps per second over fixed-size batches of ticks:
// ticksPerBatch × agents ÷ the median batch wall time in seconds (0 when no
// batch completed). With the median, one slow batch (a GC cycle, a core
// taken by another tenant) counts as one sample instead of being spread
// over the whole window.
func batchRate(ticksPerBatch, agents int, batchSecs []float64) float64 {
	m, _ := median(batchSecs)
	return ratio(float64(ticksPerBatch*agents), m)
}

// decompErr checks that an Advance's wall time splits into
//
//	step_wall (timed by the decorator around Transport.Step)
//	+ route (the engine's own route-phase counter)
//	+ advance_overhead (the wall time the engine's step, barrier and route
//	  phases do not cover: publishing the view, locking)
//
// within tickTolNs + tolShare·wall. The split is exact only if the decorator
// and the engine agree on how long the steps took, so the check compares
// two independent clocks. It returns the error in ms.
func decompErr(stepNs int64, ph phaseMark, wallNs int64, r *legResult) float64 {
	overhead := wallNs - ph.stepBarrier - ph.route
	sum := stepNs + ph.route + overhead
	errNs := math.Abs(float64(sum - wallNs))
	tol := tickTolNs + tolShare*float64(wallNs)
	r.check(errNs <= tol, "tick decomposition: step %.3f + route %.3f + overhead %.3f ms vs Advance %.3f ms (tolerance %.3f ms)",
		nsMs(stepNs), nsMs(ph.route), nsMs(overhead), nsMs(wallNs), tol/1e6)
	r.check(float64(overhead) >= -tol, "tick decomposition: engine phases %.3f ms exceed Advance wall %.3f ms",
		nsMs(ph.stepBarrier+ph.route), nsMs(wallNs))
	return errNs / 1e6
}

// stepLayers fills the core and population metrics (and the cluster ones,
// when the records carry per-worker RPC times) from the decorator's step
// records.
func stepLayers(layer map[string]float64, recs []stepRec, executors, agents int) {
	if len(recs) == 0 {
		return
	}
	var busy, wall int64
	var steals, msgs, delivered int
	walls := make([]float64, 0, len(recs))
	busies := make([]float64, 0, len(recs))
	var rpcs, selfs, wires []float64
	for _, r := range recs {
		busy += r.busy
		wall += r.wall
		steals += r.steals
		msgs += r.msgs
		delivered += r.delivered
		walls = append(walls, nsMs(r.wall))
		busies = append(busies, nsMs(r.busy))
		if r.rpc == nil {
			continue
		}
		var slowest int64
		var wire float64
		for w, rpc := range r.rpc {
			rpcs = append(rpcs, nsMs(rpc))
			slowest = max(slowest, rpc)
			// Each worker steps its shards inline: one executor, so its
			// busy time is the compute inside the round trip.
			wire += nsMs(rpc - r.workerBusy[w])
		}
		selfs = append(selfs, nsMs(r.wall-slowest))
		wires = append(wires, wire/float64(len(r.rpc)))
	}
	n := float64(len(recs))
	layer["core.step_ns_per_agent"] = float64(busy) / (n * float64(agents))
	putMedian(layer, "population.step_wall_ms", walls)
	putMedian(layer, "population.busy_ms", busies)
	layer["population.parallel_eff"] = parallelEff(busy, wall, executors)
	layer["population.steals_per_tick"] = float64(steals) / n
	layer["population.msgs_per_tick"] = float64(msgs) / n
	layer["population.delivered_per_tick"] = float64(delivered) / n
	if rpcs != nil {
		putMedian(layer, "cluster.rpc_tick_p50_ms", rpcs)
		if v, ok := tail(rpcs, 0.99); ok {
			layer["cluster.rpc_tick_p99_ms"] = v
		}
		putMedian(layer, "cluster.coord_self_ms", selfs)
		putMedian(layer, "cluster.wire_ms", wires)
	}
}

// selfTimes returns, in order, the self time in ms of every span named
// name: its duration minus what its child spans cover.
func selfTimes(spans []span, name string) []float64 {
	kids := children(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, nsMs(selfTime(s.interval(), kids[i])))
		}
	}
	return out
}

// advanceOverheads is serve.advance_overhead_ms per Advance: the advance
// span's self time (its wall time minus the decorator's step spans under
// it) less the engine's route time, per tick — what locking and publishing
// the view cost. routeMs holds each Advance's route time, in span order.
func advanceOverheads(spans []span, routeMs []float64, ticksPer int) []float64 {
	self := selfTimes(spans, "advance")
	out := make([]float64, 0, len(self))
	for i := range self {
		out = append(out, (self[i]-routeMs[i])/float64(ticksPer))
	}
	return out
}

// finalSnapshot exports the engine's state after the window, through the
// decorator when there is one (population.export_ms).
func finalSnapshot(eng *population.Engine, tt *timedTransport) (*population.Snapshot, error) {
	if tt != nil {
		tt.parent = -1
	}
	return eng.Snapshot()
}

// codecLayers measures the checkpoint codec directly on the workload's
// final snapshot: EncodeBytes and DecodeBytes codecReps times each, each
// after a collection so one repetition's garbage does not pile onto the
// next. The decoded snapshot must re-encode to the same bytes.
func codecLayers(layer map[string]float64, snap *population.Snapshot, tt *timedTransport, r *legResult) {
	var enc, dec []float64
	var b []byte
	var err error
	for i := 0; i < codecReps; i++ {
		runtime.GC()
		start := time.Now()
		b, err = checkpoint.EncodeBytes(snap, nil)
		enc = append(enc, ms(time.Since(start)))
		if err != nil {
			r.check(false, "encode: %v", err)
			return
		}
		runtime.GC()
		start = time.Now()
		back, _, err := checkpoint.DecodeBytes(b)
		dec = append(dec, ms(time.Since(start)))
		if err != nil {
			r.check(false, "decode: %v", err)
			return
		}
		if i == 0 {
			again, err := checkpoint.EncodeBytes(back, nil)
			r.check(err == nil && bytes.Equal(again, b), "decoded final snapshot does not re-encode to the same bytes")
		}
	}
	putMedian(layer, "checkpoint.encode_ms", enc)
	putMedian(layer, "checkpoint.decode_ms", dec)
	layer["checkpoint.file_mb"] = float64(len(b)) / bytesPerMB
	putMedian(layer, "population.export_ms", tt.exports)
	r.notes = append(r.notes, fmt.Sprintf("final snapshot at tick %d: %d bytes", snap.Tick, len(b)))
}
