package population

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sacs/internal/core"
	"sacs/internal/knowledge"
	"sacs/internal/runner"
	"sacs/internal/stats"
)

// tinyConfig is a minimal checkpoint-friendly population (store-backed
// walk, one shard) cheap enough to run tens of thousands of ticks, for
// exercising the work-history ring across its WorkWindow boundary.
func tinyConfig(agents int) Config {
	return Config{
		Name:   "tiny",
		Agents: agents,
		Shards: 1,
		Seed:   7,
		New: func(id int, rng *rand.Rand) *core.Agent {
			var a *core.Agent
			a = core.New(core.Config{
				Name: "t",
				Caps: core.Caps(core.LevelStimulus),
				Sensors: []core.Sensor{core.ScalarSensor("x", core.Private,
					func(now float64) float64 {
						return a.Store().Value("stim/x", 0) + rng.Float64() - 0.5
					})},
				ExplainDepth: -1,
			})
			return a
		},
		Emit: func(ctx *EmitContext) {
			if ctx.Rng.Float64() < 0.5 {
				ctx.Send(ctx.Rng.Intn(ctx.agents), core.Stimulus{
					Name: "ping", Source: "peer", Scope: core.Public, Value: 1, Time: ctx.Now})
			}
		},
	}
}

// TestWorkRingBoundsHistory drives an engine past 2·WorkWindow ticks and
// checks the ring's invariants: the retained history never exceeds
// WorkWindow, holds exactly the most recent ticks, and linearizes
// oldest-first into snapshots.
func TestWorkRingBoundsHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("ring boundary needs >2·WorkWindow ticks")
	}
	e := New(tinyConfig(1))
	ticks := 2*WorkWindow + 123
	e.Run(ticks)
	if len(e.work) != WorkWindow {
		t.Fatalf("ring holds %d entries, want exactly %d", len(e.work), WorkWindow)
	}
	hist := e.workHistory()
	if len(hist) != WorkWindow {
		t.Fatalf("linearized history has %d entries, want %d", len(hist), WorkWindow)
	}
	// The work proxy is steps + delivered; with 1 agent it is 1 or 2. The
	// history must equal an independently recorded tail.
	e2 := New(tinyConfig(1))
	var tail []float64
	for i := 0; i < ticks; i++ {
		ts := e2.Tick()
		tail = append(tail, ts.Work())
	}
	tail = tail[len(tail)-WorkWindow:]
	for i := range hist {
		if hist[i] != tail[i] {
			t.Fatalf("history[%d] = %v, want %v", i, hist[i], tail[i])
		}
	}
}

// TestRestoreMidRingByteIdentical snapshots an engine whose work ring has
// already wrapped, restores it, continues both, and compares the final
// snapshots structurally — Snapshot state is plain sorted data, so deep
// equality is byte equality of the encoded form (S2 additionally proves
// the bytes.Equal through the on-disk format). This is the resume contract
// with the ring in rotated state.
func TestRestoreMidRingByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("ring boundary needs >WorkWindow ticks")
	}
	cfg := tinyConfig(2)
	a := New(cfg)
	a.Run(WorkWindow + 57) // ring full and rotated
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Work) != WorkWindow {
		t.Fatalf("snapshot carries %d work entries, want %d", len(snap.Work), WorkWindow)
	}
	b, err := Restore(tinyConfig(2), snap)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(100)
	b.Run(100)
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("restored engine diverged from uninterrupted run after ring wrap")
	}
}

// TestWorkQuantileMatchesStatsQuantile: Run sorts the work window once and
// WorkQuantile reads it; on a full window of random values, rotated, both
// quantiles serve publishes must equal stats.Quantile over the
// oldest-first history.
func TestWorkQuantileMatchesStatsQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := New(tinyConfig(1))
	for i := 0; i < WorkWindow; i++ {
		e.pushWork(rng.Float64() * 1e4)
	}
	for i := 0; i < 777; i++ { // wrap the ring
		e.pushWork(rng.ExpFloat64() * 1e3)
	}
	hist := e.workHistory()
	rs := e.Run(0)
	for _, q := range []float64{0.50, 0.99} {
		if got, want := rs.WorkQuantile(q), stats.Quantile(hist, q); got != want {
			t.Fatalf("WorkQuantile(%v) = %v, stats.Quantile = %v", q, got, want)
		}
	}
}

// TestWorkQuantilesAfterWrapRestoreResume: the sorted copy WorkQuantile
// reads is maintained per tick, not rebuilt, so both quantiles a publish
// reads must equal stats.Quantile over the oldest-first history after the
// ring wraps, after a snapshot is restored into a fresh engine, and at
// every tick the restored engine runs on. Small integer values repeat, so
// evictions and inserts land on runs of equal values.
func TestWorkQuantilesAfterWrapRestoreResume(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(stage string, e *Engine) {
		t.Helper()
		hist := e.workHistory()
		rs := e.Run(0)
		for _, q := range []float64{0.50, 0.99} {
			if got, want := rs.WorkQuantile(q), stats.Quantile(hist, q); got != want {
				t.Fatalf("%s: WorkQuantile(%v) = %v, stats.Quantile = %v", stage, q, got, want)
			}
		}
		sorted := append([]float64(nil), hist...)
		sort.Float64s(sorted)
		if !slices.Equal(e.workSorted, sorted) {
			t.Fatalf("%s: sorted copy is not the sorted history", stage)
		}
	}
	e := New(tinyConfig(1))
	for i := 0; i < WorkWindow+777; i++ {
		e.pushWork(float64(rng.Intn(40)))
		if i%500 == 0 {
			check(fmt.Sprintf("filling, push %d", i), e)
		}
	}
	check("wrapped", e)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(tinyConfig(1), snap)
	if err != nil {
		t.Fatal(err)
	}
	check("restored", r)
	for i := 0; i < 300; i++ {
		v := float64(rng.Intn(40))
		e.pushWork(v)
		r.pushWork(v)
		check(fmt.Sprintf("resumed, push %d", i), r)
	}
	r.Run(20) // real ticks on the resumed engine
	check("resumed ticks", r)
}

// TestRestoreClampsOverlongWork: a snapshot whose work history holds more
// than WorkWindow values (one built outside the engine) restores exactly
// like one holding only the newest WorkWindow of them — the same history
// re-exported and the same quantiles, before and after the ring wraps.
func TestRestoreClampsOverlongWork(t *testing.T) {
	snap, err := New(tinyConfig(1)).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	long := make([]float64, WorkWindow+7)
	for i := range long {
		long[i] = float64(i) // distinct, oldest smallest: the excess moves p50
	}
	restore := func(work []float64) *Engine {
		s := *snap
		s.Work = work
		r, err := Restore(tinyConfig(1), &s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	got, want := restore(long), restore(long[7:])
	check := func(stage string) {
		t.Helper()
		gs, err := got.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gs.Work, ws.Work) {
			t.Fatalf("%s: re-exported work history holds %d values, want the newest %d", stage, len(gs.Work), len(ws.Work))
		}
		for _, q := range []float64{0.50, 0.99} {
			if g, w := got.Run(0).WorkQuantile(q), want.Run(0).WorkQuantile(q); g != w {
				t.Fatalf("%s: WorkQuantile(%v) = %v, want %v", stage, q, g, w)
			}
		}
	}
	check("restored")
	for i := 0; i < WorkWindow+20; i++ {
		v := float64(WorkWindow - i%100)
		got.pushWork(v)
		want.pushWork(v)
	}
	check("wrapped")
}

// TestRunWorkHistoryAllocFree: on a full window, recording a tick's work
// and Run must not allocate. The regression this pins down was a fresh
// slice per Run call — per-epoch drivers (sawd, experiments) calling Run
// in a loop paid one garbage history per epoch.
func TestRunWorkHistoryAllocFree(t *testing.T) {
	e := New(tinyConfig(1))
	e.Run(WorkWindow + 10) // fill the ring and its sorted copy
	if allocs := testing.AllocsPerRun(100, func() {
		e.pushWork(2)
	}); allocs != 0 {
		t.Fatalf("pushWork allocates %.1f per call on a full window, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = e.Run(0) // counters + history, no ticks
	}); allocs != 0 {
		t.Fatalf("Run(0) allocates %.1f per call, want 0", allocs)
	}
	// Snapshots must NOT share the engine's buffers: they outlive them.
	hist := e.workHistory()
	if &hist[0] == &e.work[0] || &hist[0] == &e.workSorted[0] {
		t.Fatal("workHistory aliases the engine's work window; snapshots would be corrupted by the next tick")
	}
}

// TestSingleOwnerStoresUnshared: every agent owns its store, whether the
// agent built it or Config.Store handed it one, so a population stepped by
// several workers touches each store from one goroutine at a time (under
// -race a store reached by two shards in one tick would be reported).
func TestSingleOwnerStoresUnshared(t *testing.T) {
	given := []*knowledge.Store{knowledge.NewStore(0.3, 8), knowledge.NewStore(0.3, 8)}
	pool := runner.New(4)
	defer pool.Close()
	e := New(Config{
		Name:   "private",
		Agents: 32,
		Shards: 8,
		Seed:   3,
		Pool:   pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			cfg := core.Config{
				Name: "p",
				Caps: core.Caps(core.LevelStimulus),
				Sensors: []core.Sensor{core.ScalarSensor("x", core.Private,
					func(now float64) float64 { return float64(id) })},
				ExplainDepth: -1,
			}
			if id < len(given) {
				cfg.Store = given[id]
			}
			return core.New(cfg)
		},
	})
	e.Run(20)
	for i, s := range given {
		if s.WriteCount() == 0 {
			t.Fatalf("store given to agent %d saw no writes", i)
		}
	}
}

// TestSharedStorePopulationStaysRaceFree: a knowledge store has one owner,
// so a population whose agents share one panics at construction, before
// any worker can step it, naming the first two agents that hold it — here
// agents 1 and 6, in different shards.
func TestSharedStorePopulationStaysRaceFree(t *testing.T) {
	shared := knowledge.NewStore(0.3, 8)
	defer func() {
		msg, _ := recover().(string)
		if want := "population: agents 1 and 6 share a knowledge store"; msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
		if n := shared.WriteCount(); n != 0 {
			t.Fatalf("the shared store saw %d writes before the panic", n)
		}
	}()
	New(Config{
		Name:   "collective",
		Agents: 8,
		Shards: 4,
		Seed:   3,
		New: func(id int, rng *rand.Rand) *core.Agent {
			cfg := core.Config{Name: "c", Caps: core.Caps(core.LevelStimulus), ExplainDepth: -1}
			if id == 1 || id == 6 {
				cfg.Store = shared
			}
			return core.New(cfg)
		},
	})
	t.Fatal("a population sharing a store was built")
}

// TestMailboxFreeListBounded is the regression for one bursty tick pinning
// peak mailbox memory for the engine's whole lifetime: after a burst into
// every agent (one inbox grown huge), a single quiet tick must trim the
// free list to the demand-adaptive bound, and over-capacity slices must
// never be recycled at all. The workload sends no messages of its own so
// the demand after the burst is exactly zero — the retained count is
// deterministic.
func TestMailboxFreeListBounded(t *testing.T) {
	const agents = 1200
	cfg := tinyConfig(agents)
	cfg.Emit = nil // quiet population: mailbox demand comes only from ingest
	e := New(cfg)
	e.Run(2)
	// The burst: external ingest into every agent, one inbox far past
	// maxFreeBoxCap stimuli.
	for id := 0; id < agents; id++ {
		if err := e.Enqueue(id, core.Stimulus{Name: "burst", Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxFreeBoxCap+100; i++ {
		if err := e.Enqueue(0, core.Stimulus{Name: "burst", Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Tick() // delivers the burst; the free list briefly holds ~agents slices
	e.Tick() // quiet tick: zero demand, so the list must shrink to the slack
	if got := len(e.free); got > freeBoxSlack {
		t.Fatalf("free list retains %d slices after a burst/quiet cycle, want <= %d", got, freeBoxSlack)
	}
	for i, box := range e.free {
		if cap(box) > maxFreeBoxCap {
			t.Fatalf("free list slot %d retains a %d-cap slice (limit %d): burst memory pinned",
				i, cap(box), maxFreeBoxCap)
		}
	}
}

// TestMailboxFreeListRecycles: after ticks with traffic, consumed inboxes
// return to the free list and agents without pending mail hold no slice.
func TestMailboxFreeListRecycles(t *testing.T) {
	e := New(tinyConfig(8))
	e.Run(50)
	// At a barrier, cur holds only pending mail; every consumed slice must
	// have been recycled rather than left parked on its agent.
	held := 0
	for _, box := range e.cur {
		if box != nil && len(box) == 0 {
			held++
		}
	}
	if held != 0 {
		t.Fatalf("%d agents hold empty mailbox slices; they belong on the free list", held)
	}
	if len(e.free) == 0 {
		t.Fatal("free list empty after 50 ticks of traffic")
	}
}
