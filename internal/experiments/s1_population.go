package experiments

import (
	"fmt"
	"math/rand"

	"sacs/internal/core"
	"sacs/internal/population"
	"sacs/internal/runner"
	"sacs/internal/stats"
)

// S1PopulationScaling exercises the sharded population engine at increasing
// population sizes: ring-gossip collectives of self-aware agents stepped
// shard-by-shard through the runner pool.
//
// Everything in the table is deterministic — population work counters,
// message rates, the population's model-mean checksum, and quantiles of the
// per-tick work proxy (agent steps + delivered stimuli) — so the table is
// byte-identical at any -parallel value, which is exactly the engine's
// contract. Wall-clock throughput (steps/sec, per-tick latency) is measured
// where timing belongs: BenchmarkPopulationTick in bench_test.go sweeps the
// same populations over worker counts, and sawbench's per-experiment job
// timing reports the real compute spent here.
func S1PopulationScaling(cfg Config) *Result {
	cfg = cfg.defaults()
	ticks := int(150 * cfg.Scale)
	if ticks < 30 {
		ticks = 30
	}
	// Scale shrinks the population too: the scaling axis is the point of
	// the experiment, and benchmarks/tests must stay fast. Tiny scales can
	// clamp several bases to the same floor; duplicates are dropped so the
	// table never carries two identical rows.
	sizes := make([]int, 0, 3)
	for _, base := range []int{1000, 4000, 10000} {
		n := int(float64(base) * cfg.Scale)
		if n < 64 {
			n = 64
		}
		if len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
	}
	const shards = 16

	table := stats.NewTable(
		fmt.Sprintf("S1 population-engine scaling: %d shards, %d ticks, %d seeds", shards, ticks, cfg.Seeds),
		"agents", "shards", "steps/tick", "msgs/tick", "inbox/step", "actions/tick",
		"model-mean", "work-p50", "work-p99")

	for _, n := range sizes {
		n := n
		row := runner.SeedAvg(cfg.Pool, "S1", fmt.Sprintf("n=%d", n), cfg.Seeds, func(seed int) []float64 {
			rs := population.New(S1Config(n, shards, int64(101+seed), cfg.Pool)).Run(ticks)
			t := float64(rs.Ticks)
			return []float64{
				float64(rs.Steps) / t,
				float64(rs.Messages) / t,
				float64(rs.Delivered) / float64(rs.Steps),
				float64(rs.Actions) / t,
				rs.Observed.Mean(),
				rs.WorkQuantile(0.50),
				rs.WorkQuantile(0.99),
			}
		})
		table.AddRow(fmt.Sprintf("n=%d", n), append([]float64{float64(n), shards}, row...)...)
	}

	table.AddNote("all cells are deterministic work metrics: tables are byte-identical at any " +
		"-parallel value (the engine's sharding contract); wall-clock steps/sec vs workers is " +
		"measured by BenchmarkPopulationTick")
	table.AddNote("work-pNN = quantiles of the per-tick work proxy (agent steps + delivered " +
		"stimuli), the deterministic stand-in for per-tick latency")
	return resultFor("S1", table)
}

// S1Config builds the S1 population: each agent senses one private load
// walk, models peers at the interaction level, and gossips its load model
// to its ring successor every tick plus one shard-RNG-chosen other peer a
// quarter of the time — guaranteed cross-shard traffic at every shard
// boundary. Exported so BenchmarkPopulationTick times the same agent
// workload (it picks its own shard count to match its worker sweep).
func S1Config(agents, shards int, seed int64, pool *runner.Pool) population.Config {
	return population.Config{
		Name:   "S1",
		Agents: agents,
		Shards: shards,
		Seed:   seed,
		Pool:   pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			val := rng.Float64() * 10
			return core.New(core.Config{
				Name: fmt.Sprintf("a%06d", id),
				Caps: core.Caps(core.LevelStimulus, core.LevelInteraction),
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(now float64) float64 {
						val += rng.Float64() - 0.5
						return val
					})},
				ExplainDepth: -1,
			})
		},
		Emit: func(ctx *population.EmitContext) {
			load := ctx.Agent.Store().Value("stim/load", 0)
			stim := core.Stimulus{Name: "load", Source: ctx.Agent.Name(),
				Scope: core.Public, Value: load, Time: ctx.Now}
			ctx.Send((ctx.ID+1)%agents, stim)
			if ctx.Rng.Float64() < 0.25 {
				// Offset draw over the other agents: a self-send would be
				// routed and counted but dropped by interaction-awareness.
				ctx.Send((ctx.ID+1+ctx.Rng.Intn(agents-1))%agents, stim)
			}
		},
		Observe: func(id int, a *core.Agent) float64 {
			return a.Store().Value("stim/load", 0)
		},
	}
}
