// Construction builds each shard's agents as one job on the engine's pool:
// the built population, and every construction panic, must be the same on
// any pool as inline.
package population_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/goals"
	"sacs/internal/knowledge"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// buildPools are the pools construction is compared across; 0 is the nil
// pool, which builds inline.
var buildPools = []int{0, 1, 2, 4}

// withPool runs fn with a pool of workers workers (nil for 0) and closes
// it afterwards, also when fn panics.
func withPool(workers int, fn func(p *runner.Pool)) {
	var p *runner.Pool
	if workers > 0 {
		p = runner.New(workers)
		defer p.Close()
	}
	fn(p)
}

// buildPanic returns what building cfg on a workers-wide pool panics with,
// or nil.
func buildPanic(workers int, cfg population.Config) (r any) {
	withPool(workers, func(p *runner.Pool) {
		defer func() { r = recover() }()
		cfg.Pool = p
		population.New(cfg)
	})
	return r
}

func TestBuildMatchesAcrossPools(t *testing.T) {
	const agents, shards, ticks = 256, 16, 30
	var want0, want30 []byte
	for _, workers := range buildPools {
		withPool(workers, func(p *runner.Pool) {
			eng := population.New(experiments.S2Config(agents, shards, 7, p))
			got0 := encodeSnapshot(t, eng)
			eng.Run(ticks)
			got30 := encodeSnapshot(t, eng)
			if want0 == nil {
				want0, want30 = got0, got30
				return
			}
			if !bytes.Equal(got0, want0) {
				t.Errorf("workers=%d: tick-0 snapshot differs from the inline build", workers)
			}
			if !bytes.Equal(got30, want30) {
				t.Errorf("workers=%d: tick-%d snapshot differs from the inline build", workers, ticks)
			}
		})
	}

	plain := func(id int) core.Config {
		return core.Config{Name: fmt.Sprintf("a%d", id), Caps: core.Caps(core.LevelStimulus), ExplainDepth: -1}
	}
	for _, tc := range []struct {
		name string
		new  func(id int, rng *rand.Rand) *core.Agent
		want any
	}{
		{
			// Agents 13 and 50 sit in shards 1 and 6 of 64 agents in 8.
			name: "nil agents",
			new: func(id int, _ *rand.Rand) *core.Agent {
				if id == 13 || id == 50 {
					return nil
				}
				return core.New(plain(id))
			},
			want: "population: Config.New returned nil for agent 13",
		},
		{
			name: "panicking factory",
			new: func(id int, _ *rand.Rand) *core.Agent {
				if id == 13 || id == 50 {
					panic(fmt.Sprintf("factory failed on %d", id))
				}
				return core.New(plain(id))
			},
			want: "factory failed on 13",
		},
		{
			name: "shared store",
			new: func() func(int, *rand.Rand) *core.Agent {
				shared := knowledge.NewStore(0.3, 8)
				return func(id int, _ *rand.Rand) *core.Agent {
					cfg := plain(id)
					if id == 1 || id == 60 {
						cfg.Store = shared
					}
					return core.New(cfg)
				}
			}(),
			want: "population: agents 1 and 60 share a knowledge store",
		},
		{
			name: "shared switcher",
			new: func() func(int, *rand.Rand) *core.Agent {
				shared := goals.NewSwitcher(goals.NewSet("g"))
				return func(id int, _ *rand.Rand) *core.Agent {
					cfg := plain(id)
					cfg.Caps = core.Caps(core.LevelStimulus, core.LevelGoal)
					cfg.Goals = goals.NewSwitcher(goals.NewSet("g"))
					if id == 2 || id == 45 {
						cfg.Goals = shared
					}
					return core.New(cfg)
				}
			}(),
			want: "population: agents 2 and 45 share a goal switcher",
		},
	} {
		for _, workers := range buildPools {
			got := buildPanic(workers, population.Config{Name: tc.name, Agents: 64, Shards: 8, Seed: 1, New: tc.new})
			if got != tc.want {
				t.Errorf("%s, workers=%d: panic %v, want %q", tc.name, workers, got, tc.want)
			}
		}
	}
}
