package experiments

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/cluster"
	"sacs/internal/core"
	"sacs/internal/population"
	"sacs/internal/runner"
	"sacs/internal/stats"
)

// S3ClusterEquivalence proves the multi-process sharding contract end to
// end: a population whose shards are hosted by cluster workers behind the
// TCP transport (internal/cluster) — external ingest included — must
// produce, tick for tick, exactly the TickStats of the single-process
// engine, and its snapshot must encode to the identical bytes
// (bytes.Equal, through the real wire codec). A resume leg additionally
// cuts the cluster run at an interior tick, restores a *fresh* cluster
// from the encoded snapshot (each worker re-initialised through the
// shard-granular Install path), and requires the continuation to end in
// the reference's exact bytes. The elastic leg exercises the live
// topology-change machinery mid-run: a worker is killed at a tick
// barrier, a replacement is dialled and admitted, the dead worker's
// shards are re-homed from live engine state (Transport.Assign — no disk
// checkpoint involved), the cluster's rebalance rule migrates load across
// the survivors, and the run must still end in the
// reference's exact bytes — migration changes where shards step, never
// what they compute.
//
// The workers here run in-process over real loopback TCP sockets — the
// identical codec, framing and worker code that `sawd -worker` processes
// execute; the CI cluster-e2e job repeats the check across genuine process
// boundaries and diffs the checkpoint files with cmp. Every cell is
// deterministic; like all suite tables the output is byte-identical at any
// -parallel value.
func S3ClusterEquivalence(cfg Config) *Result {
	cfg = cfg.defaults()
	ticks := int(60 * cfg.Scale)
	if ticks < 16 {
		ticks = 16
	}
	agents := int(256 * cfg.Scale)
	if agents < 64 {
		agents = 64
	}
	const shards = 16

	table := stats.NewTable(
		fmt.Sprintf("S3 multi-process cluster equivalence: %d agents, %d shards, %d ticks, %d seeds",
			agents, shards, ticks, cfg.Seeds),
		"workers", "ticks-match", "snap-match", "resume-match", "elastic-match", "snap-KiB", "model-mean")

	for _, workers := range []int{1, 2, 4} {
		workers := workers
		row := runner.SeedAvg(cfg.Pool, "S3", fmt.Sprintf("workers=%d", workers), cfg.Seeds,
			func(seed int) []float64 {
				sseed := int64(307 + seed)
				build := func() population.Config { return S2Config(agents, shards, sseed, nil) }
				ingest := func(e *population.Engine, tick int) {
					if tick%5 != 0 {
						return
					}
					st := core.Stimulus{Name: "ext", Source: "client", Scope: core.Public,
						Value: float64(tick) * 1.5, Time: float64(tick)}
					if err := e.Enqueue((tick*13)%agents, st); err != nil {
						panic(fmt.Sprintf("S3: enqueue: %v", err))
					}
				}

				ref := population.New(build())
				rig := s3Cluster(workers, build, nil)

				cut := ticks / 2
				var midSnap *population.Snapshot
				ticksMatch := 1.0
				for i := 0; i < ticks; i++ {
					if i == cut {
						snap, err := rig.eng.Snapshot()
						if err != nil {
							panic(fmt.Sprintf("S3: mid-run snapshot: %v", err))
						}
						midSnap = snap
					}
					ingest(ref, i)
					ingest(rig.eng, i)
					want := ref.Tick()
					got, err := rig.eng.TickErr()
					if err != nil {
						panic(fmt.Sprintf("S3: cluster tick %d: %v", i, err))
					}
					if !reflect.DeepEqual(want, got) {
						ticksMatch = 0
					}
				}
				refEnc := mustEncode(ref)
				cluEnc := mustEncode(rig.eng)
				snapMatch := 0.0
				if bytes.Equal(refEnc, cluEnc) {
					snapMatch = 1
				}
				rig.shutdown()

				// Resume leg: a brand-new cluster (fresh worker "processes",
				// fresh agents) restored from the mid-run snapshot must end
				// in the reference's exact bytes.
				rig2 := s3Cluster(workers, build, midSnap)
				for i := cut; i < ticks; i++ {
					ingest(rig2.eng, i)
					if _, err := rig2.eng.TickErr(); err != nil {
						panic(fmt.Sprintf("S3: resumed tick %d: %v", i, err))
					}
				}
				resEnc := mustEncode(rig2.eng)
				resumeMatch := 0.0
				if bytes.Equal(refEnc, resEnc) {
					resumeMatch = 1
				}
				rig2.shutdown()

				elasticMatch := 0.0
				if s3ElasticLeg(workers, build, ingest, ticks, refEnc) {
					elasticMatch = 1
				}

				rs := rig.eng.Run(0)
				return []float64{ticksMatch, snapMatch, resumeMatch, elasticMatch,
					float64(len(cluEnc)) / 1024, rs.Observed.Mean()}
			})
		table.AddRow(fmt.Sprintf("workers=%d", workers),
			append([]float64{float64(workers)}, row...)...)
	}

	table.AddNote("ticks-match: 1 when every tick's TickStats over the TCP cluster transport equal " +
		"the single-process engine's, external ingest included")
	table.AddNote("snap-match: 1 when the cluster engine's final snapshot encodes to bytes.Equal " +
		"with the single-process snapshot (gathered from workers through Transport.Export)")
	table.AddNote("resume-match: 1 when a fresh cluster restored from the mid-run snapshot " +
		"(shard-granular Install to every worker) ends in the reference's exact bytes")
	table.AddNote("elastic-match: 1 when a run that kills a worker at the mid-run barrier, " +
		"re-admits a replacement from live engine state (Assign, no disk checkpoint) and " +
		"rebalances by the cluster's placement rule still ends in the reference's exact bytes")
	table.AddNote("workers run in-process over real loopback TCP — the identical wire path " +
		"`sawd -worker` processes speak; CI's cluster-e2e job repeats this across real processes")
	return resultFor("S3", table)
}

// s3ElasticLeg runs the live-topology-change scenario: tick to the mid-run
// barrier, kill worker 0 and detach it, dial and admit a replacement
// worker, re-home the orphaned shard ranges from the barrier snapshot
// (live engine state — exactly what the workers held, because no tick has
// run since), rebalance by the cluster's placement rule, then finish the
// run. Returns whether the final snapshot is
// byte-identical to the reference encoding.
func s3ElasticLeg(workers int, build func() population.Config,
	ingest func(*population.Engine, int), ticks int, refEnc []byte) bool {
	rig := s3Cluster(workers, build, nil)
	defer rig.shutdown()

	cut := ticks / 2
	for i := 0; i < cut; i++ {
		ingest(rig.eng, i)
		if _, err := rig.eng.TickErr(); err != nil {
			panic(fmt.Sprintf("S3: elastic tick %d: %v", i, err))
		}
	}
	// Barrier state, captured before the kill: with no tick in between,
	// this *is* the live state of every worker, so the replacement can be
	// seeded from it without touching a checkpoint file.
	snap, err := rig.eng.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("S3: elastic barrier snapshot: %v", err))
	}
	rig.ws[0].Close()
	if err := rig.tr.DetachWorker(0); err != nil {
		panic(fmt.Sprintf("S3: detach: %v", err))
	}

	// The replacement worker: a fresh process, announced to the
	// coordinator and admitted into the placement shard-less.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("S3: elastic listen: %v", err))
	}
	w, err := cluster.NewWorker(ln, nil, []cluster.Workload{{Name: "gossip", Build: S2Config}})
	if err != nil {
		panic(fmt.Sprintf("S3: elastic worker: %v", err))
	}
	go w.Serve()
	defer w.Close()
	wi, err := rig.cl.AddWorker(w.Addr(), 5*time.Second)
	if err != nil {
		panic(fmt.Sprintf("S3: elastic add: %v", err))
	}
	if err := rig.tr.AdmitWorker(wi); err != nil {
		panic(fmt.Sprintf("S3: elastic admit: %v", err))
	}

	// Re-home the dead worker's contiguous runs from the barrier snapshot.
	owner := rig.tr.Owner()
	for lo := 0; lo < len(owner); {
		if owner[lo] != 0 {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(owner) && owner[hi] == 0 {
			hi++
		}
		rs, err := snap.Range(lo, hi)
		if err != nil {
			panic(fmt.Sprintf("S3: elastic range: %v", err))
		}
		if err := rig.tr.Assign(rs, wi); err != nil {
			panic(fmt.Sprintf("S3: elastic assign: %v", err))
		}
		lo = hi
	}

	// One explicit live migration on top of the re-homing: move a single
	// shard from a surviving worker onto the replacement, so the leg
	// exercises the drain → adopt → release path against a running
	// population (with more than one worker to move between).
	owner = rig.tr.Owner()
	for lo := range owner {
		if owner[lo] != wi && owner[lo] != 0 {
			if err := rig.tr.Migrate(lo, lo+1, wi); err != nil {
				panic(fmt.Sprintf("S3: elastic migrate: %v", err))
			}
			break
		}
	}

	// Spread load across the survivors with the cluster's placement rule
	// (the one the serve admin endpoint runs).
	if _, err := rig.tr.Rebalance(); err != nil {
		panic(fmt.Sprintf("S3: elastic rebalance: %v", err))
	}

	for i := cut; i < ticks; i++ {
		ingest(rig.eng, i)
		if _, err := rig.eng.TickErr(); err != nil {
			panic(fmt.Sprintf("S3: elastic tick %d: %v", i, err))
		}
	}
	return bytes.Equal(refEnc, mustEncode(rig.eng))
}

// s3Rig is one running cluster under test: the coordinator engine, the
// shared client, the engine's transport (for placement operations) and
// the in-process workers (indexed like the client's slots, so tests can
// kill a specific one).
type s3Rig struct {
	eng      *population.Engine
	cl       *cluster.Client
	tr       *cluster.Transport
	ws       []*cluster.Worker
	shutdown func()
}

// s3Cluster brings up `workers` cluster workers on loopback TCP, attaches a
// coordinator engine for the S2 workload (restored from snap when non-nil),
// and returns the rig. Failures panic: the runner pool's per-job recovery
// reports them as the job's failure.
func s3Cluster(workers int, build func() population.Config,
	snap *population.Snapshot) *s3Rig {
	cfg := build().Normalized()
	addrs := make([]string, workers)
	ws := make([]*cluster.Worker, workers)
	for i := range ws {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("S3: listen: %v", err))
		}
		w, err := cluster.NewWorker(ln, nil, []cluster.Workload{{Name: "gossip", Build: S2Config}})
		if err != nil {
			panic(fmt.Sprintf("S3: worker: %v", err))
		}
		go w.Serve()
		addrs[i] = w.Addr()
		ws[i] = w
	}
	cl, err := cluster.Dial(addrs, 5*time.Second)
	if err != nil {
		panic(fmt.Sprintf("S3: dial: %v", err))
	}
	tr, err := cl.NewTransport(cluster.Spec{
		ID: "s3", Workload: "gossip", Agents: cfg.Agents, Shards: cfg.Shards, Seed: cfg.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("S3: transport: %v", err))
	}
	var eng *population.Engine
	if snap == nil {
		eng, err = population.NewWithTransport(cfg, tr)
	} else {
		// Travel the real codec: what Install pushes to the workers is
		// decoded from the same bytes a checkpoint file would hold.
		enc, encErr := checkpoint.EncodeBytes(snap, nil)
		if encErr != nil {
			panic(fmt.Sprintf("S3: encode mid snapshot: %v", encErr))
		}
		decoded, _, decErr := checkpoint.DecodeBytes(enc)
		if decErr != nil {
			panic(fmt.Sprintf("S3: decode mid snapshot: %v", decErr))
		}
		eng, err = population.RestoreWithTransport(cfg, tr, decoded)
	}
	if err != nil {
		panic(fmt.Sprintf("S3: engine: %v", err))
	}
	return &s3Rig{eng: eng, cl: cl, tr: tr, ws: ws, shutdown: func() {
		eng.Close()
		cl.Close()
		for _, w := range ws {
			w.Close()
		}
	}}
}
