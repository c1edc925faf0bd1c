package cluster

import (
	"strconv"
	"strings"
	"testing"

	"sacs/internal/obs"
	"sacs/internal/population"
)

// TestClientInstrumentation runs a small clustered population with RPC
// metrics on and checks the whole chain: per-worker per-type latency
// histograms count the RPCs actually made, byte counters move in both
// directions, attach epochs are published, the in-flight gauge returns to
// zero, and StepNanos crosses the wire so the coordinator's engine metrics
// see remote shard busy time.
func TestClientInstrumentation(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	reg := obs.NewRegistry()
	cl.Instrument(reg)

	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	cfg := testBuild(tAgents, tShards, tSeed, nil)
	cfg.Metrics = population.NewMetrics(reg, "p")
	eng, err := population.NewWithTransport(cfg, tr)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	const ticks = 5
	eng.Run(ticks)

	snap := reg.Snapshot()
	for _, addr := range addrs {
		key := `sacs_cluster_rpc_seconds{type="tick",worker="` + addr + `"}`
		hv, ok := snap[key].(obs.HistogramValue)
		if !ok || hv.Count != ticks {
			t.Errorf("%s = %+v, want count %d", key, snap[key], ticks)
		}
		for _, dir := range []string{"in", "out"} {
			key := `sacs_cluster_rpc_bytes_total{dir="` + dir + `",worker="` + addr + `"}`
			if v, _ := snap[key].(float64); v <= 0 {
				t.Errorf("%s = %v, want > 0", key, snap[key])
			}
		}
		key = `sacs_cluster_attach_epoch{pop="p",worker="` + addr + `"}`
		if v, _ := snap[key].(float64); v < 1 {
			t.Errorf("%s = %v, want >= 1", key, snap[key])
		}
	}
	if v := snap["sacs_cluster_frames_inflight"]; v != 0.0 {
		t.Errorf("frames in flight after quiesce = %v, want 0", v)
	}

	// StepNanos travelled the wire: the engine's per-shard step histogram
	// saw one observation per shard per tick with non-zero total time.
	hv, _ := snap[`sacs_population_shard_step_seconds{pop="p"}`].(obs.HistogramValue)
	if hv.Count != int64(ticks*tShards) {
		t.Errorf("shard step observations = %d, want %d", hv.Count, ticks*tShards)
	}
	if hv.Sum <= 0 {
		t.Error("remote shard busy time never accumulated")
	}

	// The coordinator's cost view covers every remote shard after one run,
	// and the per-shard gauges agree with it.
	costs := tr.ShardCosts(nil)
	if len(costs) != tShards {
		t.Fatalf("ShardCosts covers %d shards, want %d", len(costs), tShards)
	}
	for s, c := range costs {
		if c <= 0 {
			t.Errorf("shard %d cost estimate = %v after %d ticks, want > 0", s, c, ticks)
		}
		key := `sacs_cluster_shard_cost_seconds{pop="p",shard="` + strconv.Itoa(s) + `"}`
		if v, want := snap[key], float64(int64(c))*obs.Seconds; v != want || want <= 0 {
			t.Errorf("%s = %v, want the estimate %v s", key, v, want)
		}
	}

	// The exposition renders the cluster families.
	var b strings.Builder
	if err := reg.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"# TYPE sacs_cluster_rpc_seconds histogram",
		"# TYPE sacs_cluster_rpc_bytes_total counter",
		"# TYPE sacs_cluster_attach_epoch gauge",
		"# TYPE sacs_cluster_dial_retries_total counter",
		"# TYPE sacs_cluster_shard_cost_seconds gauge",
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %q", family)
		}
	}
}

// TestMigrationMetrics: a live migration moves the observability plane with
// the shards — the migration counter increments, per-worker shard-count and
// load gauges re-settle to the new placement — while the per-shard cost
// gauges stay one series per shard: a migration leaves no zeroed series
// behind.
func TestMigrationMetrics(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	reg := obs.NewRegistry()
	cl.Instrument(reg)

	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(5)

	if err := tr.Migrate(0, 2, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	snap := reg.Snapshot()
	if v, _ := snap[`sacs_cluster_migrations_total{pop="p"}`].(float64); v != 1 {
		t.Errorf("migrations_total = %v, want 1", v)
	}
	wantShards := map[string]float64{addrs[0]: 2, addrs[1]: 6}
	for addr, want := range wantShards {
		key := `sacs_cluster_worker_shards{pop="p",worker="` + addr + `"}`
		if v, _ := snap[key].(float64); v != want {
			t.Errorf("%s = %v, want %v", key, snap[key], want)
		}
		key = `sacs_cluster_worker_cost_seconds{pop="p",worker="` + addr + `"}`
		if v, _ := snap[key].(float64); v <= 0 {
			t.Errorf("%s = %v, want > 0", key, snap[key])
		}
	}
	series := 0
	for key := range snap {
		if strings.HasPrefix(key, "sacs_cluster_shard_cost_seconds{") {
			series++
		}
	}
	if series != tShards {
		t.Errorf("%d shard cost series after a migration, want one per shard (%d)", series, tShards)
	}
	costs := tr.ShardCosts(nil)
	for s, c := range costs {
		key := `sacs_cluster_shard_cost_seconds{pop="p",shard="` + strconv.Itoa(s) + `"}`
		if v, want := snap[key], float64(int64(c))*obs.Seconds; v != want || want <= 0 {
			t.Errorf("%s = %v, want the estimate %v s", key, v, want)
		}
	}
}
