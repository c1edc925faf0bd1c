package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/core"
	"sacs/internal/population"
)

// tickBoth advances the in-process reference and the cluster engine one
// tick in lock-step (same external ingest cadence as the byte-identity
// test) and fails on any stats divergence.
func tickBoth(t *testing.T, i int, ref, eng *population.Engine) {
	t.Helper()
	if i%7 == 0 {
		if err := ref.Enqueue(i%tAgents, extStim(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Enqueue(i%tAgents, extStim(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Tick()
	got, err := eng.TickErr()
	if err != nil {
		t.Fatalf("cluster tick %d: %v", i, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("tick %d stats diverge:\nin-process %+v\ncluster    %+v", i, want, got)
	}
}

func encodeSnap(t *testing.T, eng *population.Engine) []byte {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hostedRuns reads a worker's hosted shard runs for population id.
func hostedRuns(t *testing.T, w *Worker, id string) []span {
	t.Helper()
	w.mu.Lock()
	p := w.pops[id]
	w.mu.Unlock()
	if p == nil {
		t.Fatalf("worker hosts no population %q", id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return shardRuns(p.t.Owned())
}

// TestLiveMigrationByteIdentical is the tentpole at test scale: shard
// ranges migrate between workers mid-run — including onto a worker that
// joined after the run started and was admitted with no shards — and the
// run stays tick-for-tick stat-identical and snapshot-byte-identical to
// the uninterrupted single-process engine. Migration moves state without
// rewriting a byte of it, so the only thing that changes is where shards
// step.
func TestLiveMigrationByteIdentical(t *testing.T) {
	ref := population.New(testBuild(tAgents, tShards, tSeed, nil))

	addrs, workers := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	tick := 0
	run := func(n int) {
		for ; n > 0; n-- {
			tickBoth(t, tick, ref, eng)
			tick++
		}
	}

	run(10)

	// Initial partition: worker 0 owns [0, 4), worker 1 owns [4, 8).
	// Move [0, 2) onto worker 1: it then hosts two disjoint runs.
	if err := tr.Migrate(0, 2, 1); err != nil {
		t.Fatalf("migrate [0,2)→1: %v", err)
	}
	if got := hostedRuns(t, workers[1], "p"); !reflect.DeepEqual(got, []span{{0, 2}, {4, 8}}) {
		t.Fatalf("worker 1 hosts %v, want [{0 2} {4 8}]", got)
	}
	run(5)

	// A worker that joins mid-run: admitted with no shards, then handed a
	// range live.
	lateAddrs, lateWorkers := startWorkers(t, 1)
	wi, err := cl.AddWorker(lateAddrs[0], 5*time.Second)
	if err != nil {
		t.Fatalf("add worker: %v", err)
	}
	if err := tr.AdmitWorker(wi); err != nil {
		t.Fatalf("admit worker %d: %v", wi, err)
	}
	if err := tr.Migrate(2, 4, wi); err != nil {
		t.Fatalf("migrate [2,4)→%d: %v", wi, err)
	}
	run(5)

	// Adjacent adopt must coalesce: [0, 2) lands left of the hosted
	// [2, 4), collapsing worker 2 back to a single [0, 4) run.
	if err := tr.Migrate(0, 2, wi); err != nil {
		t.Fatalf("migrate [0,2)→%d: %v", wi, err)
	}
	if got := hostedRuns(t, lateWorkers[0], "p"); !reflect.DeepEqual(got, []span{{0, 4}}) {
		t.Fatalf("late worker hosts %v after adjacent adopts, want one coalesced [{0 4}]", got)
	}
	run(5)

	// Explanations route through the post-migration owner map.
	for _, id := range []int{0, tAgents/2 + 1, tAgents - 1} {
		want, err := ref.Explain(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Explain(id)
		if err != nil {
			t.Fatalf("explain %d after migrations: %v", id, err)
		}
		if want != got {
			t.Fatalf("agent %d explanation diverges after migration", id)
		}
	}

	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("snapshot diverges from in-process run after live migrations")
	}

	// The owner map reflects the moves; every worker's placement totals 8.
	owner, placement := tr.Placement()
	want := []int{2, 2, 2, 2, 1, 1, 1, 1}
	if !reflect.DeepEqual(owner, want) {
		t.Fatalf("owner map %v, want %v", owner, want)
	}
	total := 0
	for _, wp := range placement {
		total += wp.Shards
	}
	if total != tShards || placement[0].Shards != 0 || placement[2].Epoch == 0 {
		t.Fatalf("placement %+v: want %d shards total, worker 0 empty, worker 2 admitted", placement, tShards)
	}
}

// TestMigrateValidation: every way a migration can be mis-specified fails
// before any worker state moves, and the run continues untouched.
func TestMigrateValidation(t *testing.T) {
	ref := population.New(testBuild(tAgents, tShards, tSeed, nil))
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tickBoth(t, i, ref, eng)
	}

	cases := []struct {
		name       string
		lo, hi, to int
		want       string
	}{
		{"inverted range", 4, 2, 1, "shard range"},
		{"out of bounds", 6, 99, 0, "shard range"},
		{"spans owners", 2, 6, 0, "owned by worker"},
		{"dest is source", 0, 2, 0, "destination is the current owner"},
		{"dest out of range", 0, 2, 7, "destination worker 7 of 2"},
	}
	for _, c := range cases {
		if err := tr.Migrate(c.lo, c.hi, c.to); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}

	// Un-admitted and detached destinations are rejected too.
	lateAddrs, _ := startWorkers(t, 1)
	wi, err := cl.AddWorker(lateAddrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Migrate(0, 2, wi); err == nil || !strings.Contains(err.Error(), "destination worker 2 of 2") {
		t.Fatalf("migrate to never-admitted worker: %v", err)
	}
	if err := tr.AdmitWorker(wi); err != nil {
		t.Fatal(err)
	}
	if err := tr.DetachWorker(wi); err != nil {
		t.Fatal(err)
	}
	if err := tr.Migrate(0, 2, wi); err == nil || !strings.Contains(err.Error(), "detached") {
		t.Fatalf("migrate to detached worker: %v", err)
	}
	if err := tr.DetachWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Migrate(0, 2, 1); err == nil || !strings.Contains(err.Error(), "use Assign") {
		t.Fatalf("migrate from detached source: %v", err)
	}

	// None of the rejected migrations moved anything: revive the source
	// mark and the run continues in lock-step.
	tr.dead[0] = false
	for i := 3; i < 6; i++ {
		tickBoth(t, i, ref, eng)
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("rejected migrations disturbed the run")
	}
}

// TestWorkerReplacementReAdmission is the re-admission contract: kill a
// worker at a tick barrier, admit a fresh replacement, Assign it the
// orphaned shard ranges from live engine state (a barrier snapshot — not
// a disk checkpoint), and the run continues byte-identically to the
// uninterrupted single-process engine.
func TestWorkerReplacementReAdmission(t *testing.T) {
	ref := population.New(testBuild(tAgents, tShards, tSeed, nil))
	addrs, workers := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tickBoth(t, i, ref, eng)
	}

	// Barrier snapshot, then the worker dies.
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	workers[1].Close()
	if err := tr.DetachWorker(1); err != nil {
		t.Fatal(err)
	}

	// Ticking with orphaned shards fails loudly before any RPC (so no
	// worker steps and nothing desyncs), naming the remedy.
	if _, err := tr.Step(10, make([][]core.Stimulus, tAgents)); err == nil ||
		!strings.Contains(err.Error(), "Assign") {
		t.Fatalf("step with orphaned shards: %v", err)
	}

	// A fresh worker process joins, is admitted (fresh attach epoch), and
	// receives the dead worker's ranges from the barrier snapshot.
	repAddrs, _ := startWorkers(t, 1)
	wi, err := cl.AddWorker(repAddrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AdmitWorker(wi); err != nil {
		t.Fatal(err)
	}
	if tr.epochs[wi] == 0 {
		t.Fatal("re-admitted worker has no attach epoch")
	}
	// Assigning a range whose owner is alive must be refused.
	liveRS, err := snap.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Assign(liveRS, wi); err == nil || !strings.Contains(err.Error(), "use Migrate") {
		t.Fatalf("assign of live-owned range: %v", err)
	}
	for _, run := range shardRuns(ownedShards(tr, 1)) {
		rs, err := snap.Range(run.lo, run.hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Assign(rs, wi); err != nil {
			t.Fatalf("assign [%d, %d): %v", run.lo, run.hi, err)
		}
	}

	for i := 10; i < 20; i++ {
		tickBoth(t, i, ref, eng)
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("run diverged after worker replacement")
	}
}

func ownedShards(t *Transport, wi int) []int {
	var shards []int
	for s, w := range t.owner {
		if w == wi {
			shards = append(shards, s)
		}
	}
	return shards
}

// TestAdmitWorkerEpochAndGuards: re-admitting a live worker that still
// owns shards is refused (re-init would destroy their state); once its
// shards are migrated away, re-admission succeeds and visibly bumps the
// attach epoch.
func TestAdmitWorkerEpochAndGuards(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.AdmitWorker(0); err == nil || !strings.Contains(err.Error(), "migrate its shards away") {
		t.Fatalf("admit of shard-owning worker: %v", err)
	}
	if err := tr.Migrate(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	before := tr.epochs[0]
	if err := tr.AdmitWorker(0); err != nil {
		t.Fatalf("re-admit after evacuation: %v", err)
	}
	if tr.epochs[0] <= before {
		t.Fatalf("attach epoch %d after re-admission, want > %d", tr.epochs[0], before)
	}
	if err := tr.AdmitWorker(99); err == nil || !strings.Contains(err.Error(), "admit worker 99") {
		t.Fatalf("admit out-of-range worker: %v", err)
	}
}

// hostedAgents returns the agents worker w hosts of population id, by id.
func hostedAgents(t *testing.T, w *Worker, id string) map[int]*core.Agent {
	t.Helper()
	w.mu.Lock()
	p := w.pops[id]
	w.mu.Unlock()
	if p == nil {
		t.Fatalf("worker hosts no population %q", id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	agents := make(map[int]*core.Agent)
	for ag := 0; ag < tAgents; ag++ {
		if a := p.t.Agent(ag); a != nil {
			agents[ag] = a
		}
	}
	return agents
}

// TestMigrationKeepsNeighbourAgents: an ownership change builds or drops
// only the shards that move. When an adjacent range migrates in or out, a
// worker's remaining agents stay the very same *core.Agent objects, and
// the run stays stat-identical to the single-process engine.
func TestMigrationKeepsNeighbourAgents(t *testing.T) {
	ref := population.New(testBuild(tAgents, tShards, tSeed, nil))
	addrs, workers := startWorkers(t, 2)
	tr, err := dialAll(t, addrs).NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	tick := 0
	for ; tick < 5; tick++ {
		tickBoth(t, tick, ref, eng)
	}
	// Worker 0 owns [0, 4), worker 1 owns [4, 8). [2, 4) moves in next to
	// worker 1's run and out of the tail of worker 0's; then [2, 3) moves
	// back in next to worker 0's [0, 2) and out of the head of worker 1's.
	for _, m := range []struct{ lo, hi, to int }{{2, 4, 1}, {2, 3, 0}} {
		before := []map[int]*core.Agent{hostedAgents(t, workers[0], "p"), hostedAgents(t, workers[1], "p")}
		if err := tr.Migrate(m.lo, m.hi, m.to); err != nil {
			t.Fatalf("migrate [%d, %d)→%d: %v", m.lo, m.hi, m.to, err)
		}
		for wi, w := range workers {
			kept := 0
			for id, a := range hostedAgents(t, w, "p") {
				if old, ok := before[wi][id]; ok {
					kept++
					if old != a {
						t.Fatalf("migrate [%d, %d)→%d rebuilt worker %d's agent %d", m.lo, m.hi, m.to, wi, id)
					}
				}
			}
			if kept == 0 {
				t.Fatalf("migrate [%d, %d)→%d: worker %d kept no agents to compare", m.lo, m.hi, m.to, wi)
			}
		}
		for end := tick + 3; tick < end; tick++ {
			tickBoth(t, tick, ref, eng)
		}
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("snapshot bytes diverge after the migrations")
	}
}
