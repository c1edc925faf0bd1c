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
	"strconv"
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
// skew story on a live pooled engine: the dispatching transport's cost
// model singles out the expensive shard, the steal counter moves, and the
// published per-shard cost gauges equal the model.
//
// Estimates are wall-clock EWMAs, so a GC pause, or a loaded host
// descheduling an executor, can inflate a cheap shard's estimate past the
// 100×-cost shard's for several ticks. Such noise only ever adds wall
// time, so the rank is asserted on each shard's lowest estimate across
// many barriers: the reading closest to its real cost. Shard 0's must
// exceed every cheap shard's.
func TestSkewCostLearningAndStealing(t *testing.T) {
	pool := runner.New(4)
	defer pool.Close()
	cfg := skewConfig(96, 8, pool)
	reg := obs.NewRegistry()
	cfg.Metrics = population.NewMetrics(reg, "skew")
	e := population.New(cfg)
	costs := e.Transport().(*population.LocalTransport).Costs()
	e.Run(10) // let the model learn the skew

	const barriers = 30
	lowest := make([]float64, costs.Shards())
	for i := 0; i < barriers; i++ {
		e.Tick()
		for s := range lowest {
			if est := costs.Estimate(s); i == 0 || est < lowest[s] {
				lowest[s] = est
			}
		}
	}
	for s := 1; s < len(lowest); s++ {
		if lowest[0] <= lowest[s] {
			t.Errorf("cost model missed the skew: over %d barriers shard 0's lowest estimate %.0fns <= shard %d's %.0fns",
				barriers, lowest[0], s, lowest[s])
		}
	}

	snap := reg.Snapshot()
	if v, _ := snap[`sacs_population_sched_steal_total{pop="skew"}`].(float64); v == 0 {
		t.Errorf("%d skewed ticks over 4 executors recorded zero steals", 10+barriers)
	}
	for s := 0; s < costs.Shards(); s++ {
		key := `sacs_population_shard_cost_seconds{pop="skew",shard="` + strconv.Itoa(s) + `"}`
		if v, want := snap[key], float64(int64(costs.Estimate(s)))*obs.Seconds; v != want {
			t.Errorf("%s = %v, want the transport's estimate %v", key, v, want)
		}
	}
}
