package cluster

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/population"
)

// TestClusterTickAllocsMatchInProcess: past warm-up, a tick over two
// loopback workers allocates what the same tick allocates in process, plus
// a small fixed overhead per tick (the coordinator's goroutine per worker,
// interned names) — nothing per message, frame or worker gauge. The wire
// buffers are reused from tick to tick and decoded stimulus names are
// interned, so a tick's thousand-odd messages crossing the wire twice cost
// no allocation of their own.
//
// The count is process-wide: the loopback workers and the runtime's
// network poller allocate inside it too. The overhead measured +16 (Go
// 1.24, linux/amd64, 8 runs); the bound leaves four for the runtime.
func TestClusterTickAllocsMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 1024-agent populations")
	}
	const (
		agents = 1024
		shards = 16
		warm   = 30
		ticks  = 20
		slack  = 20 // allocations per tick the cluster may add: +16 measured
	)
	ref := population.New(testBuild(agents, shards, tSeed, nil))
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(Spec{ID: "p", Workload: "gossip", Agents: agents, Shards: shards, Seed: tSeed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(agents, shards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(warm)
	for i := 0; i < warm; i++ {
		if _, err := eng.TickErr(); err != nil {
			t.Fatal(err)
		}
	}
	inProcess := testing.AllocsPerRun(ticks, func() { ref.Tick() })
	cluster := testing.AllocsPerRun(ticks, func() {
		if _, err := eng.TickErr(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per tick: in process %.0f, cluster %.0f (+%.0f)", inProcess, cluster, cluster-inProcess)
	if cluster > inProcess+slack {
		t.Fatalf("a cluster tick allocates %.0f times, the in-process tick %.0f: %.0f more, want at most %d",
			cluster, inProcess, cluster-inProcess, slack)
	}
}

// TestWireBuffersAliasNothingKept: what the coordinator keeps from a reply —
// the shard runs of an export, taken before and after a live migration —
// stays byte-for-byte as it arrived while more ticks reuse the same
// connections' buffers. Two populations tick concurrently over one client,
// each matching its own in-process run, so tick buffers shared between
// transports would show up here (and under -race).
func TestWireBuffersAliasNothingKept(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	type pair struct {
		ref, eng *population.Engine
		tr       *Transport
	}
	var pops []pair
	for _, id := range []string{"p", "q"} {
		tr, err := cl.NewTransport(testSpec(id))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, pair{population.New(testBuild(tAgents, tShards, tSeed, nil)), eng, tr})
	}
	tickAll := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(pops))
		for i, p := range pops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < n; k++ {
					if err := p.eng.Enqueue(k%tAgents, extStim(k)); err != nil {
						errs[i] = err
						return
					}
					if err := p.ref.Enqueue(k%tAgents, extStim(k)); err != nil {
						errs[i] = err
						return
					}
					want := p.ref.Tick()
					got, err := p.eng.TickErr()
					if err != nil {
						errs[i] = err
						return
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("population %d tick %d diverges:\nin-process %+v\ncluster    %+v", i, k, want, got)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	type kept struct {
		runs, copies [][]byte
	}
	keep := func(rs *population.RangeState) kept {
		k := kept{runs: rs.Runs}
		for _, r := range rs.Runs {
			k.copies = append(k.copies, bytes.Clone(r))
		}
		return k
	}

	tickAll(5)
	var held []kept
	for _, p := range pops {
		rs, err := p.tr.Export()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, keep(rs))
	}
	// Move the first worker's last shard to the second, then export again:
	// the runs now come from the migrated placement.
	for _, p := range pops {
		owned := ownedShards(p.tr, 0)
		s := owned[len(owned)-1]
		if err := p.tr.Migrate(s, s+1, 1); err != nil {
			t.Fatal(err)
		}
		rs, err := p.tr.Export()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, keep(rs))
	}
	tickAll(8)
	for i, k := range held {
		for s := range k.runs {
			if !bytes.Equal(k.runs[s], k.copies[s]) {
				t.Fatalf("export %d: shard %d's run changed under later ticks", i, s)
			}
		}
	}
	for i, p := range pops {
		a, err := p.ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ea, _ := checkpoint.EncodeBytes(a, nil)
		eb, _ := checkpoint.EncodeBytes(b, nil)
		if !bytes.Equal(ea, eb) {
			t.Fatalf("population %d: cluster snapshot differs from in-process", i)
		}
	}
}
