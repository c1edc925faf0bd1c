package population

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sacs/internal/core"
	"sacs/internal/goals"
	"sacs/internal/runner"
)

// Shared goal sets for the checkpoint workload: factories must rebuild the
// identical schedule on restore, so the sets live at package level exactly
// as a real workload would define them.
var (
	ckptGoalLow = goals.NewSet("steady",
		goals.Objective{Name: "load", Direction: goals.Minimize, Weight: 1})
	ckptGoalHigh = goals.NewSet("surge",
		goals.Objective{Name: "load", Direction: goals.Maximize, Weight: 2, Constrained: true, Bound: 12})
)

// ckptConfig is a checkpoint-friendly full-stack workload: every piece of
// mutable agent state lives in the knowledge store, the goal switcher, the
// built-in processes or the engine-owned RNG streams — the components
// Snapshot captures. The sensor's random walk reads its previous position
// back from the store instead of hiding it in the closure.
func ckptConfig(agents, shards int, seed int64, pool *runner.Pool) Config {
	return Config{
		Name:   "ckpt",
		Agents: agents,
		Shards: shards,
		Seed:   seed,
		Pool:   pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			sw := goals.NewSwitcher(ckptGoalLow)
			sw.ScheduleSwitch(40, ckptGoalHigh)
			var a *core.Agent
			a = core.New(core.Config{
				Name:  fmt.Sprintf("a%04d", id),
				Caps:  core.FullStack,
				Goals: sw,
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(now float64) float64 {
						return a.Store().Value("stim/load", float64(id%5)) + rng.Float64() - 0.5
					})},
				ExplainDepth: -1,
			})
			return a
		},
		Emit: func(ctx *EmitContext) {
			load := ctx.Agent.Store().Value("stim/load", 0)
			stim := core.Stimulus{Name: "load", Source: ctx.Agent.Name(),
				Scope: core.Public, Value: load, Time: ctx.Now}
			ctx.Send((ctx.ID+1)%ctx.agents, stim)
			if ctx.Rng.Float64() < 0.3 {
				ctx.Send((ctx.ID+1+ctx.Rng.Intn(ctx.agents-1))%ctx.agents, stim)
			}
		},
		Observe: func(id int, a *core.Agent) float64 {
			return a.Store().Value("stim/load", 0)
		},
	}
}

func snapshotAt(t *testing.T, e *Engine) *Snapshot {
	t.Helper()
	s, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return s
}

// TestResumeDeterminism is the engine-level statement of the resume
// contract: snapshot at tick T, restore into a fresh engine at a DIFFERENT
// worker count, and every subsequent tick plus the final full state must be
// identical to the uninterrupted run.
func TestResumeDeterminism(t *testing.T) {
	const agents, shards, total = 96, 8, 60
	cut := rand.New(rand.NewSource(1)) // ticks to checkpoint at, drawn at random
	for trial := 0; trial < 3; trial++ {
		at := 1 + cut.Intn(total-1)
		t.Run(fmt.Sprintf("cut=%d", at), func(t *testing.T) {
			// Uninterrupted reference at 4 workers.
			ref := runner.New(4)
			defer ref.Close()
			a := New(ckptConfig(agents, shards, 7, ref))
			refTicks := make([]TickStats, total)
			for i := 0; i < total; i++ {
				refTicks[i] = a.Tick()
			}
			want := snapshotAt(t, a)

			// Interrupted run: serial until the cut, snapshot, resume on an
			// 8-worker pool.
			b := New(ckptConfig(agents, shards, 7, nil))
			for i := 0; i < at; i++ {
				if got := b.Tick(); !reflect.DeepEqual(got, refTicks[i]) {
					t.Fatalf("pre-cut tick %d diverged:\n got %+v\nwant %+v", i, got, refTicks[i])
				}
			}
			snap := snapshotAt(t, b)

			wide := runner.New(8)
			defer wide.Close()
			c, err := Restore(ckptConfig(agents, shards, 7, wide), snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if c.Ticks() != at {
				t.Fatalf("restored engine at tick %d, want %d", c.Ticks(), at)
			}
			for i := at; i < total; i++ {
				if got := c.Tick(); !reflect.DeepEqual(got, refTicks[i]) {
					t.Fatalf("post-resume tick %d diverged:\n got %+v\nwant %+v", i, got, refTicks[i])
				}
			}
			got := snapshotAt(t, c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("final state after resume differs from uninterrupted run (cut at %d)", at)
			}
		})
	}
}

// TestSnapshotIsDetached verifies a snapshot shares no mutable memory with
// the engine: ticking after Snapshot must not change the exported state.
func TestSnapshotIsDetached(t *testing.T) {
	e := New(ckptConfig(48, 4, 3, nil))
	e.Run(10)
	s1 := snapshotAt(t, e)
	ref := snapshotAt(t, e)
	e.Run(5)
	if !reflect.DeepEqual(s1, ref) {
		t.Fatal("snapshot mutated by subsequent ticks")
	}
}

// TestStreamSnapshotRefusesPoisonedEngine: like Snapshot, a streamed
// snapshot of a poisoned engine fails before anything reaches the sink.
func TestStreamSnapshotRefusesPoisonedEngine(t *testing.T) {
	eng := New(ckptConfig(16, 4, 1, nil))
	eng.Run(2)
	eng.broken = errors.New("worker lost")
	reached := false
	err := eng.StreamSnapshot(Sink{
		Head: func(*Snapshot) error { reached = true; return nil },
		Run:  func([]byte) error { reached = true; return nil },
	})
	if !errors.Is(err, eng.broken) || reached {
		t.Fatalf("poisoned engine: error %v, sink reached %v", err, reached)
	}
}

func TestRestoreValidation(t *testing.T) {
	e := New(ckptConfig(48, 4, 3, nil))
	e.Run(5)
	snap := snapshotAt(t, e)

	cases := map[string]Config{
		"agents": ckptConfig(32, 4, 3, nil),
		"shards": ckptConfig(48, 8, 3, nil),
		"seed":   ckptConfig(48, 4, 4, nil),
	}
	for name, cfg := range cases {
		if _, err := Restore(cfg, snap); err == nil {
			t.Errorf("restore with mismatched %s: want error, got nil", name)
		}
	}

	bad := *snap
	bad.AgentRNG = bad.AgentRNG[:10]
	if _, err := Restore(ckptConfig(48, 4, 3, nil), &bad); err == nil {
		t.Error("restore with truncated agent streams: want error, got nil")
	}
}

func TestEnqueueDeliversNextTick(t *testing.T) {
	e := New(ckptConfig(48, 4, 3, nil))
	e.Run(2)
	if err := e.Enqueue(5, core.Stimulus{Name: "ext", Scope: core.Public, Value: 1, Time: 2}); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := e.Enqueue(48, core.Stimulus{Name: "ext"}); err == nil {
		t.Fatal("out-of-range enqueue: want error")
	}

	// The enqueued stimulus must be part of the snapshot and delivered on
	// the next tick, whether the engine resumed or not.
	snap := snapshotAt(t, e)
	r, err := Restore(ckptConfig(48, 4, 3, nil), snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	direct, resumed := e.Tick(), r.Tick()
	if !reflect.DeepEqual(direct, resumed) {
		t.Fatalf("tick after enqueue differs between original and resumed engine:\n%+v\n%+v", direct, resumed)
	}
	if got := r.Agent(5).Store().Value("stim/ext", -1); got != 1 {
		t.Fatalf("external stimulus not injected: stim/ext=%v", got)
	}
}

// TestMailboxBudgetUnbounded pins that the engine has no mailbox budget
// and never sheds outside traffic: admission control belongs to the
// hosting service, so every Enqueue to a valid agent is accepted and the
// next tick delivers all of it.
func TestMailboxBudgetUnbounded(t *testing.T) {
	e := New(testConfig(4, 2, nil))
	for i := 0; i < 500; i++ {
		if err := e.Enqueue(i%4, core.Stimulus{Name: "ext", Source: "client",
			Scope: core.Public, Value: float64(i)}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if ts := e.Tick(); ts.Delivered != 500 {
		t.Fatalf("first tick delivered %d stimuli, want all 500 enqueued", ts.Delivered)
	}
}
