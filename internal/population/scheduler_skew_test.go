// Byte-equality of the tick under cost-skewed scheduling, proven through
// the real snapshot codec. This lives outside the population package so it
// can import internal/checkpoint (which itself imports population): the
// contract here is bytes.Equal of encoded snapshots, not structural
// equality.
package population_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/core"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// skewConfig builds a gossip population where shard 0's agents do roughly
// 100× the sensing work of everyone else — the adversarial input for
// cost-aware scheduling: the cost model must learn the skew, LPT must front
// it, and none of that may change a single byte of state.
func skewConfig(agents, shards int, pool *runner.Pool) population.Config {
	perShard := agents / shards
	return population.Config{
		Name:   "skew",
		Agents: agents,
		Shards: shards,
		Seed:   99,
		Pool:   pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			spin := 40
			if id < perShard {
				spin = 4000 // shard 0: ~100× the per-step compute
			}
			val := rng.Float64() * 10
			return core.New(core.Config{
				Name: fmt.Sprintf("a%04d", id),
				Caps: core.Caps(core.LevelStimulus, core.LevelInteraction),
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(now float64) float64 {
						// The spin is deterministic float work: identical
						// for every run of this config, so it skews cost
						// without touching the simulated values.
						x := 1.0
						for i := 0; i < spin; i++ {
							x += 1 / (x + 1)
						}
						val += rng.Float64() - 0.5
						return val + x - x
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
				ctx.Send((ctx.ID+1+ctx.Rng.Intn(agents-1))%agents, stim)
			}
		},
		Observe: func(id int, a *core.Agent) float64 {
			return a.Store().Value("stim/load", 0)
		},
	}
}

// encodeSnapshot returns e's encoded snapshot — the bytes that must be
// invariant under every dispatch order.
func encodeSnapshot(t *testing.T, e *population.Engine) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// skewSnapshotBytes runs the skewed population for ticks ticks on a
// workers-wide pool and returns its encoded snapshot. With permSeed == 0
// the transport dispatches in the LPT order its cost model learns from
// the skew. Otherwise, before every tick, it is handed distinct cost
// priors drawn from a permSeed-seeded RNG, so LPT dispatches the shards
// in a fresh seeded random permutation each tick.
func skewSnapshotBytes(t *testing.T, workers int, permSeed int64, ticks int) []byte {
	t.Helper()
	pool := runner.New(workers)
	defer pool.Close()
	cfg := skewConfig(96, 8, pool).Normalized()
	lt := population.NewLocalTransport(cfg, 0, cfg.Shards)
	e, err := population.NewWithTransport(cfg, lt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(permSeed))
	costs := make([]float64, cfg.Shards)
	for i := 0; i < ticks; i++ {
		if permSeed != 0 {
			for s, p := range rng.Perm(cfg.Shards) {
				costs[s] = float64(p + 1)
			}
			if err := lt.SeedCosts(costs); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.TickErr(); err != nil {
			t.Fatal(err)
		}
	}
	return encodeSnapshot(t, e)
}

// TestSchedulerSkewDeterminism is the acceptance test for cost-aware
// dispatch: under a ~100× per-shard cost skew, the encoded snapshot is
// byte-identical to the inline reference engine (no pool) across worker
// counts 1/2/4/8, each under the learned LPT order and under several
// seeded random dispatch permutations that change every tick — with work
// stealing on throughout, so claims interleave arbitrarily too.
func TestSchedulerSkewDeterminism(t *testing.T) {
	const ticks = 10
	ref := population.New(skewConfig(96, 8, nil))
	ref.Run(ticks)
	want := encodeSnapshot(t, ref)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, permSeed := range []int64{0, 1, 2, 3, 4} {
			if got := skewSnapshotBytes(t, workers, permSeed, ticks); !bytes.Equal(got, want) {
				t.Errorf("workers=%d permSeed=%d: snapshot bytes diverge from inline reference (%d vs %d bytes)",
					workers, permSeed, len(got), len(want))
			}
		}
	}
}

// TestSkewCostLearningAndStealing checks the observability half of the
// skew story on a live pooled engine: the cost model singles out the
// expensive shard, the steal counter moves, and the per-shard cost gauges
// are published.
func TestSkewCostLearningAndStealing(t *testing.T) {
	pool := runner.New(4)
	defer pool.Close()
	cfg := skewConfig(96, 8, pool)
	cfg.Metrics = population.NewMetrics(obs.NewRegistry(), "skew")
	e := population.New(cfg)
	e.Run(30)

	for s := 1; s < 8; s++ {
		if e.ShardCost(0) <= e.ShardCost(s) {
			t.Errorf("cost model missed the skew: shard 0 estimate %.0fns <= shard %d estimate %.0fns",
				e.ShardCost(0), s, e.ShardCost(s))
		}
	}
	ms := e.Metrics().Snapshot()
	if ms.Steals == 0 {
		t.Error("30 skewed ticks over 4 executors recorded zero steals")
	}
	if len(ms.ShardCostSeconds) != 8 {
		t.Fatalf("snapshot carries %d shard cost gauges, want 8", len(ms.ShardCostSeconds))
	}
	if ms.ShardCostSeconds[0] <= ms.ShardCostSeconds[1] {
		t.Errorf("published cost gauges missed the skew: shard 0 %.9fs <= shard 1 %.9fs",
			ms.ShardCostSeconds[0], ms.ShardCostSeconds[1])
	}
}
