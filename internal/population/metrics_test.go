package population

import (
	"reflect"
	"strconv"
	"testing"

	"sacs/internal/obs"
)

// TestMetricsObservationOnly is the determinism proof for the observability
// plane: an instrumented run produces an identical Snapshot (deep-equal
// plain data — the checkpoint codec renders equal structs to equal bytes)
// and identical statistics to an uninstrumented run of the same config.
func TestMetricsObservationOnly(t *testing.T) {
	const agents, shards, ticks = 200, 8, 15

	plain := New(testConfig(agents, shards, nil))
	instr := New(func() Config {
		c := testConfig(agents, shards, nil)
		c.Metrics = NewMetrics(obs.NewRegistry(), "test")
		return c
	}())

	ps, is := plain.Run(ticks), instr.Run(ticks)
	if ps.Steps != is.Steps || ps.Messages != is.Messages ||
		ps.Delivered != is.Delivered || ps.Actions != is.Actions ||
		ps.Observed.Mean() != is.Observed.Mean() {
		t.Fatalf("metrics changed the run: %+v vs %+v", ps, is)
	}

	snapOf := func(e *Engine) *Snapshot {
		t.Helper()
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if !reflect.DeepEqual(snapOf(plain), snapOf(instr)) {
		t.Fatal("instrumented snapshot differs from uninstrumented")
	}
}

// TestMetricsValues checks the instruments carry what they claim, read
// from the registry (the only place metrics are rendered): tick counter,
// per-shard histogram counts (one observation per shard per tick), a phase
// decomposition that is present and non-negative, and one cost gauge per
// shard equal to the dispatching transport's own cost model.
func TestMetricsValues(t *testing.T) {
	const agents, shards, ticks = 120, 6, 10
	reg := obs.NewRegistry()
	cfg := testConfig(agents, shards, nil)
	cfg.Metrics = NewMetrics(reg, "test")
	e := New(cfg)
	e.Run(ticks)
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if v := snap[`sacs_population_ticks_total{pop="test"}`]; v != float64(ticks) {
		t.Errorf("registry ticks = %v, want %d", v, ticks)
	}
	if v := snap[`sacs_population_tick{pop="test"}`]; v != float64(ticks) {
		t.Errorf("registry tick gauge = %v, want %d", v, ticks)
	}
	for _, name := range []string{"sacs_population_shard_step_seconds", "sacs_population_shard_mailbox_depth"} {
		hv, ok := snap[name+`{pop="test"}`].(obs.HistogramValue)
		if !ok || hv.Count != int64(ticks*shards) {
			t.Errorf("%s observations = %+v, want count %d", name, snap[name+`{pop="test"}`], ticks*shards)
		}
	}
	phase := func(name string) float64 {
		v, _ := snap[`sacs_population_phase_seconds_total{phase="`+name+`",pop="test"}`].(float64)
		return v
	}
	for _, name := range []string{"step", "barrier", "route"} {
		if phase(name) < 0 {
			t.Errorf("negative %s phase time %v", name, phase(name))
		}
	}
	if phase("step") == 0 {
		t.Error("step phase never accumulated")
	}
	if phase("snapshot") <= 0 {
		t.Error("snapshot phase never accumulated")
	}
	// Scheduling series: the steal counter exists (inline engine: always 0),
	// and one cost gauge per shard carries the transport's estimate.
	if v, ok := snap[`sacs_population_sched_steal_total{pop="test"}`]; !ok || v != 0.0 {
		t.Errorf("registry steal counter = %v (ok=%v), want 0 on the inline engine", v, ok)
	}
	costs := e.Transport().(*LocalTransport).Costs()
	for s := 0; s < shards; s++ {
		key := `sacs_population_shard_cost_seconds{pop="test",shard="` + strconv.Itoa(s) + `"}`
		v, ok := snap[key].(float64)
		if !ok || v <= 0 {
			t.Errorf("registry cost gauge %s = %v (ok=%v), want > 0 after %d ticks", key, snap[key], ok, ticks)
		}
		if want := float64(int64(costs.Estimate(s))) * obs.Seconds; ok && v != want {
			t.Errorf("%s = %v disagrees with the transport's cost model %v", key, v, want)
		}
	}

	if NewMetrics(nil, "x") != nil {
		t.Error("NewMetrics(nil) must return nil")
	}
}
