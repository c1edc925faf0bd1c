// Parallel export (LocalTransport.ExportRange encodes the shards' runs on
// the engine's pool) must be invisible in the snapshot: the encoded bytes
// and the reported error are the serial loop's at every worker count.
package population_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/learning"
	"sacs/internal/population"
	"sacs/internal/runner"
)

var exportWorkers = []int{1, 2, 4, 8}

func TestParallelExportBytesEqualAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range exportWorkers {
		pool := runner.New(workers)
		eng := population.New(experiments.S2Config(64, 16, 5, pool))
		eng.Run(12)
		got := encodeSnapshot(t, eng)
		pool.Close()
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: snapshot bytes differ from workers=%d", workers, exportWorkers[0])
		}
	}
}

// TestExportRangeRunsOwnTheirBuffers: every sub-range of an 8-shard
// population, exported on every pool, holds each shard's run as the
// agents' AppendState spells it, each in a buffer of its own — a run that
// shared its encoder's reused buffer would be overwritten by a later one.
func TestExportRangeRunsOwnTheirBuffers(t *testing.T) {
	const agents, shards = 40, 8
	for _, workers := range []int{0, 1, 2, 4} {
		pool, closePool := newPool(workers)
		cfg := experiments.S2Config(agents, shards, 5, pool)
		lt := population.NewLocalTransport(cfg, 0, shards)
		eng, err := population.NewWithTransport(cfg, lt)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(6)
		bounds := population.Partition(agents, shards)
		want := make([][]byte, shards)
		for s := range want {
			var e codec.Encoder
			for id := bounds[s]; id < bounds[s+1]; id++ {
				if err := lt.Agent(id).AppendState(&e); err != nil {
					t.Fatal(err)
				}
			}
			want[s] = e.Bytes()
		}
		for lo := 0; lo < shards; lo++ {
			for hi := lo + 1; hi <= shards; hi++ {
				rs, err := lt.ExportRange(lo, hi)
				if err != nil {
					t.Fatalf("workers=%d [%d, %d): %v", workers, lo, hi, err)
				}
				for i, run := range rs.Runs {
					if !bytes.Equal(run, want[lo+i]) {
						t.Fatalf("workers=%d [%d, %d): shard %d's run differs from its agents' state", workers, lo, hi, lo+i)
					}
					for j := 0; j < i; j++ {
						if overlap(run, rs.Runs[j]) {
							t.Fatalf("workers=%d [%d, %d): shards %d and %d share a buffer", workers, lo, hi, lo+j, lo+i)
						}
					}
				}
			}
		}
		closePool()
	}
}

// overlap reports whether a and b share any of their backing arrays'
// capacity.
func overlap(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// opaquePredictor forecasts fine but has no exportable state, so an agent
// using it cannot be checkpointed.
type opaquePredictor struct{ last float64 }

func (p *opaquePredictor) Observe(x float64) { p.last = x }
func (p *opaquePredictor) Predict() float64  { return p.last }
func (p *opaquePredictor) Name() string      { return "opaque" }

// opaqueConfig is a population of agents whose bad ones cannot export
// their state.
func opaqueConfig(agents, shards int, bad map[int]bool, pool *runner.Pool) population.Config {
	return population.Config{
		Name: "opaque", Agents: agents, Shards: shards, Seed: 3, Pool: pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			a := core.New(core.Config{
				Name: fmt.Sprintf("a%02d", id),
				Caps: core.Caps(core.LevelStimulus, core.LevelTime),
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(float64) float64 { return rng.Float64() })},
				ExplainDepth: -1,
			})
			if bad[id] {
				a.TimeProcess().NewPredict = func() learning.Predictor { return &opaquePredictor{} }
			}
			return a
		},
	}
}

func TestParallelExportReportsLowestFailingAgent(t *testing.T) {
	const agents, shards = 64, 8
	bad := map[int]bool{13: true, 50: true} // shards 1 and 6
	for _, workers := range exportWorkers {
		pool := runner.New(workers)
		eng := population.New(opaqueConfig(agents, shards, bad, pool))
		eng.Run(3)
		_, err := eng.Snapshot()
		pool.Close()
		if err == nil || !strings.Contains(err.Error(), "agent 13 state") {
			t.Fatalf("workers=%d: Snapshot error = %v, want it to name agent 13", workers, err)
		}
	}
}

// Parallel install (LocalTransport.overlay fans one job per shard over the
// engine's pool) must be invisible too: a population restored on any
// worker count continues byte-identically to the uninterrupted run.
func TestParallelRestoreBytesEqualAcrossWorkers(t *testing.T) {
	const cut, more = 12, 6
	eng := population.New(experiments.S2Config(64, 16, 5, nil))
	eng.Run(cut)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(more)
	want := encodeSnapshot(t, eng)
	for _, workers := range exportWorkers {
		pool := runner.New(workers)
		r, err := population.Restore(experiments.S2Config(64, 16, 5, pool), snap)
		if err != nil {
			pool.Close()
			t.Fatalf("workers=%d: restore: %v", workers, err)
		}
		r.Run(more)
		got := encodeSnapshot(t, r)
		pool.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: restored run's snapshot bytes differ from the uninterrupted run", workers)
		}
	}
}

func TestParallelInstallReportsLowestFailingAgent(t *testing.T) {
	const agents, shards = 64, 8
	cfg := experiments.S2Config(agents, shards, 3, nil)
	eng := population.New(cfg)
	eng.Run(3)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bounds := population.Partition(agents, shards)
	for _, id := range []int{13, 50} { // shards 1 and 6
		s := id / (agents / shards)
		snap.Runs[s] = population.RenamedRun(eng.Agent, bounds[s], bounds[s+1], id, "impostor")
	}
	for _, workers := range exportWorkers {
		pool := runner.New(workers)
		cfg.Pool = pool
		_, err := population.Restore(cfg, snap)
		pool.Close()
		if err == nil || !strings.Contains(err.Error(), "agent 13:") {
			t.Fatalf("workers=%d: Restore error = %v, want it to name agent 13", workers, err)
		}
	}
}
