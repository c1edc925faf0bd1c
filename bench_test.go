// Package sacs_bench holds the benchmark harness: one testing.B benchmark
// per experiment (the "tables and figures" of the reproduction — run
// `go test -bench=E -benchmem` to regenerate every result at reduced scale,
// or cmd/sawbench for the full-scale tables), plus micro-benchmarks of the
// framework's hot paths.
package sacs_bench

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sacs/internal/camnet"
	"sacs/internal/checkpoint"
	"sacs/internal/cluster"
	"sacs/internal/core"
	"sacs/internal/cpn"
	"sacs/internal/experiments"
	"sacs/internal/knowledge"
	"sacs/internal/learning"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// benchCfg runs each experiment at a fraction of the paper-scale length so
// a full -bench pass stays in seconds while exercising exactly the same
// code paths as the full tables.
var benchCfg = experiments.Config{Seeds: 1, Scale: 0.1}

func benchExperiment(b *testing.B, id string) {
	spec := experiments.Registry()[id]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := spec.Run(benchCfg)
		if r.Table.NumRows() == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

// One benchmark per experiment (table/figure) in the evaluation suite.

func BenchmarkE1CameraNetwork(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2GoalSwitch(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3VolunteerCloud(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4CPNResilience(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5LevelsAblation(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6MetaUnderDrift(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7Collective(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Attention(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Explanation(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10NoAPriori(b *testing.B)     { benchExperiment(b, "E10") }

// Design-choice ablation sweeps (X-series figures).

func BenchmarkX1CamnetLambda(b *testing.B)   { benchExperiment(b, "X1") }
func BenchmarkX2PortfolioEpoch(b *testing.B) { benchExperiment(b, "X2") }
func BenchmarkX3CPNExploration(b *testing.B) { benchExperiment(b, "X3") }
func BenchmarkX4CloudGate(b *testing.B)      { benchExperiment(b, "X4") }
func BenchmarkX5Hierarchy(b *testing.B)      { benchExperiment(b, "X5") }

// Population-engine benchmarks: wall-clock throughput of the sharded
// stepping path. The S1 table deliberately reports only deterministic work
// metrics; these benchmarks are where steps/sec vs population size and
// worker count is actually measured. CI runs them with -benchtime=1x as a
// smoke test so the scaling path cannot silently rot.

func BenchmarkS1PopulationScaling(b *testing.B) { benchExperiment(b, "S1") }

// BenchmarkPopulationTick sweeps worker counts over a 10k-agent population
// (plus a 1k point for the size axis): with >1 core available, ns/op at
// workers=4 dropping below workers=1 is the >1-core speedup the sharding
// exists for. steps/sec is reported as a custom metric.
func BenchmarkPopulationTick(b *testing.B) {
	for _, bc := range []struct{ agents, workers int }{
		{1000, 1},
		{10000, 1},
		{10000, 2},
		{10000, 4},
		{10000, 8},
	} {
		b.Run(fmt.Sprintf("agents=%d/workers=%d", bc.agents, bc.workers), func(b *testing.B) {
			p := runner.New(bc.workers)
			defer p.Close()
			// The exact S1 workload (experiments.S1Config), at 32 shards so
			// 4 workers still get 8 jobs each per tick. Metrics stay ON:
			// the allocs/op gate on this benchmark is the proof that the
			// observability plane costs the hot path nothing.
			cfg := experiments.S1Config(bc.agents, 32, 1, p)
			cfg.Metrics = population.NewMetrics(obs.NewRegistry(), "bench")
			eng := population.New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Tick()
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(bc.agents)*float64(b.N)/secs, "steps/sec")
			}
		})
	}
}

// BenchmarkPopulationTickGossip is the tick rung of the gossip workload
// sawd hosts and perfbench drives: experiments.S2Config at 1024 agents and
// 16 shards on a 2-worker pool, warmed 100 ticks (past the tick-60 switch
// to the constrained surge goal) before the timer starts. Its allocs/op
// gates the goal and interaction levels the S1 rung never runs; live-B/agent
// is the heap the population keeps per agent after a forced GC.
func BenchmarkPopulationTickGossip(b *testing.B) {
	const agents = 1024
	p := runner.New(2)
	defer p.Close()
	before := liveHeap()
	cfg := experiments.S2Config(agents, 16, 1, p)
	cfg.Metrics = population.NewMetrics(obs.NewRegistry(), "bench")
	eng := population.New(cfg)
	eng.Run(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(int64(liveHeap())-int64(before))/agents, "live-B/agent")
	runtime.KeepAlive(eng)
}

// BenchmarkPopulationNew is the cold-start rung: one op builds the gossip
// population of BenchmarkPopulationTickGossip (S2, 1024 agents, 16 shards)
// on a 2-worker pool, the construction sawd pays on every create and
// resume. Its allocs/op gates what a new agent allocates.
func BenchmarkPopulationNew(b *testing.B) {
	const agents = 1024
	p := runner.New(2)
	defer p.Close()
	cfg := experiments.S2Config(agents, 16, 1, p)
	b.ReportAllocs()
	for b.Loop() {
		population.New(cfg)
	}
}

// BenchmarkClusterTick is the cluster tick rung: the gossip population of
// BenchmarkPopulationTickGossip (S2, 1024 agents, 16 shards) with its
// shards on in-process workers over loopback TCP, the coordinator and its
// client instrumented as sawd runs them, warmed 100 ticks before the timer
// starts. One op is one tick: mail encoded, sent, stepped and answered per
// worker, replies decoded and routed. Its allocs/op, set against
// PopulationTickGossip's, is what the wire adds to a tick.
func BenchmarkClusterTick(b *testing.B) {
	const agents, shards, workers = 1024, 16, 2
	b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
		addrs := make([]string, workers)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			w, err := cluster.NewWorker(ln, nil, []cluster.Workload{{Name: "gossip", Build: experiments.S2Config}})
			if err != nil {
				b.Fatal(err)
			}
			w.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
			go w.Serve()
			defer w.Close()
			addrs[i] = w.Addr()
		}
		cl, err := cluster.Dial(addrs, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		reg := obs.NewRegistry()
		cl.Instrument(reg)
		tr, err := cl.NewTransport(cluster.Spec{ID: "bench", Workload: "gossip", Agents: agents, Shards: shards, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cfg := experiments.S2Config(agents, shards, 1, nil)
		cfg.Metrics = population.NewMetrics(reg, "bench")
		eng, err := population.NewWithTransport(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		tick := func() {
			if _, err := eng.TickErr(); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			tick()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
		}
	})
}

// liveHeap returns the bytes of heap still reachable after a forced GC.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkCheckpointRoundTrip measures the full durability path for a
// running population: Snapshot -> Encode -> Decode -> Restore. bytes/op of
// encoded state is reported as a custom metric; this is the cost sawd pays
// per checkpoint interval, so it bounds how aggressive the interval can be.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	for _, agents := range []int{256, 2048} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			cfg := experiments.S2Config(agents, 16, 1, nil)
			eng := population.New(cfg)
			eng.Run(20) // populate stores, histories, predictors, mailboxes
			b.ReportAllocs()
			b.ResetTimer()
			var encoded int
			for i := 0; i < b.N; i++ {
				snap, err := eng.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				buf, err := checkpoint.EncodeBytes(snap, nil)
				if err != nil {
					b.Fatal(err)
				}
				encoded = len(buf)
				decoded, _, err := checkpoint.DecodeBytes(buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := population.Restore(cfg, decoded); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(encoded), "snapshot-bytes")
		})
	}
}

// BenchmarkCheckpointWrite is the write half of the durability path alone,
// the one a checkpoint holds the population lock for, on a 2-worker pool.
// Each op writes the file twice. First materialised: Snapshot (state
// export) then checkpoint.Write (encode, file write, fsync, rename), timed
// apart as export-ms and write-ms so the rung shows which half moved. Then
// streamed, as serve writes it: checkpoint.WriteStream over
// Engine.StreamSnapshot, whose encoding and file writes overlap, timed as
// stream-ms. alloc-x is the bytes the streamed write allocates per op over
// the file's size; 1 would be one copy of the state. The population does
// not tick between ops, so every export after the first finds each
// store's kept name order unchanged.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, agents := range []int{2048} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			p := runner.New(2)
			defer p.Close()
			eng := population.New(experiments.S2Config(agents, 16, 1, p))
			eng.Run(20)
			path := filepath.Join(b.TempDir(), checkpoint.FileName("bench", 20))
			b.ReportAllocs()
			var export, write, stream time.Duration
			var streamAlloc uint64
			var before, after runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				snap, err := eng.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				if err := checkpoint.Write(path, snap, nil); err != nil {
					b.Fatal(err)
				}
				export += mid.Sub(start)
				write += time.Since(mid)

				runtime.ReadMemStats(&before)
				start = time.Now()
				if err := checkpoint.WriteStream(path, eng.StreamSnapshot, nil); err != nil {
					b.Fatal(err)
				}
				stream += time.Since(start)
				runtime.ReadMemStats(&after)
				streamAlloc += after.TotalAlloc - before.TotalAlloc
			}
			b.StopTimer()
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(perOp(export), "export-ms")
			b.ReportMetric(perOp(write), "write-ms")
			b.ReportMetric(perOp(stream), "stream-ms")
			b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
			b.ReportMetric(float64(streamAlloc)/float64(b.N)/float64(fi.Size()), "alloc-x")
		})
	}
}

// BenchmarkCheckpointRead is the resume half: checkpoint.Read (file read,
// checksum, decode) then population.Restore (construct and install, on a
// 2-worker pool) of the file CheckpointWrite's population writes. alloc-x
// is bytes allocated per op over the file's size.
func BenchmarkCheckpointRead(b *testing.B) {
	for _, agents := range []int{2048} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			p := runner.New(2)
			defer p.Close()
			cfg := experiments.S2Config(agents, 16, 1, p)
			eng := population.New(cfg)
			eng.Run(20)
			snap, err := eng.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), checkpoint.FileName("bench", 20))
			if err := checkpoint.Write(path, snap, nil); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := checkpoint.Read(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := population.Restore(cfg, got); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
			b.ReportMetric(perOp/float64(fi.Size()), "alloc-x")
		})
	}
}

// Dispatcher benchmarks: the runner pool's per-job overhead and the
// experiment suite's scaling with worker count.

// BenchmarkRunnerFanOut measures pure dispatch overhead: many tiny jobs, so
// queue and scheduling costs dominate the work itself.
func BenchmarkRunnerFanOut(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := runner.New(workers)
			defer p.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := runner.FanOut(p, runner.Key{Experiment: "bench"}, 64, func(j int) float64 {
					s := 0.0
					for k := 1; k <= 256; k++ {
						s += 1 / float64(k^j+1)
					}
					return s
				})
				if len(out) != 64 {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkRunnerSuite runs a slice of the real experiment suite through a
// shared pool at different worker counts — the shape cmd/sawbench uses.
func BenchmarkRunnerSuite(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := runner.New(workers)
			defer p.Close()
			cfg := experiments.Config{Seeds: 2, Scale: 0.05, Pool: p}
			reg := experiments.Registry()
			ids := []string{"E1", "E3", "E8"}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := p.NewBatch()
				for _, id := range ids {
					id := id
					batch.Add(runner.Key{Experiment: id}, func() (any, error) {
						return reg[id].Run(cfg), nil
					})
				}
				if err := runner.Errors(batch.Wait()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Framework micro-benchmarks: the per-decision costs of self-awareness.

func BenchmarkAgentStepFullStack(b *testing.B) {
	val := 0.0
	agent := core.New(core.Config{
		Name: "bench",
		Caps: core.FullStack,
		Sensors: []core.Sensor{
			core.ScalarSensor("a", core.Private, func(float64) float64 { return val }),
			core.ScalarSensor("b", core.Private, func(float64) float64 { return val * 2 }),
		},
		Reasoner: core.ReasonerFunc{ReasonerName: "r", Fn: func(d *core.Decision) {
			d.Consult("stim/a", 0)
			d.Choose(core.Action{Name: "noop"}, "bench")
		}},
		Effectors: []core.Effector{core.EffectorFunc{
			EffectorName: "noop", Fn: func(core.Action) error { return nil }}},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val = float64(i % 100)
		agent.Step(float64(i), nil)
	}
}

func BenchmarkAgentStepStimulusOnly(b *testing.B) {
	val := 0.0
	agent := core.New(core.Config{
		Name: "bench",
		Caps: core.Caps(core.LevelStimulus),
		Sensors: []core.Sensor{
			core.ScalarSensor("a", core.Private, func(float64) float64 { return val }),
		},
		ExplainDepth: -1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val = float64(i % 100)
		agent.Step(float64(i), nil)
	}
}

func BenchmarkKnowledgeStoreObserve(b *testing.B) {
	s := knowledge.NewStore(0.3, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe("metric", knowledge.Private, float64(i%100), float64(i))
	}
}

func BenchmarkBanditSelectUpdate(b *testing.B) {
	for _, mk := range []struct {
		name string
		new  func() learning.Bandit
	}{
		{"ucb1", func() learning.Bandit { return learning.NewUCB1(16) }},
		{"eps-greedy", func() learning.Bandit {
			return learning.NewEpsilonGreedy(16, 0.1, rand.New(rand.NewSource(1)))
		}},
		{"sliding-ucb", func() learning.Bandit { return learning.NewSlidingUCB(16, 200) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			bd := mk.new()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm := bd.Select()
				bd.Update(arm, float64(i%2))
			}
		})
	}
}

func BenchmarkGossipRound(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			values := make([]float64, n)
			for i := range values {
				values[i] = rng.Float64()
			}
			c := core.NewCollective(values, core.RingTopology(n, 2, rng), rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Round()
			}
		})
	}
}

func BenchmarkCameraNetworkTick(b *testing.B) {
	n := camnet.NewNetwork(camnet.Config{
		Seed: 1, Cameras: 25, Objects: 30, Ticks: 1, SelfAware: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

func BenchmarkCPNTick(b *testing.B) {
	n := cpn.NewNetwork(cpn.Config{
		Seed: 1, Ticks: 1,
		Flows: []cpn.Flow{{Src: 0, Dst: 23, Rate: 1.2}, {Src: 5, Dst: 18, Rate: 1.2}},
	}, cpn.NewQRouter(rand.New(rand.NewSource(2))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

func BenchmarkExplainDecision(b *testing.B) {
	d := &core.Decision{Now: 1}
	for i := 0; i < 4; i++ {
		d.Score(fmt.Sprintf("cand%d", i), float64(i))
	}
	d.Choose(core.Action{Name: "act", Value: 1}, "benchmark rationale %d", 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Explain() == "" {
			b.Fatal("empty explanation")
		}
	}
}
