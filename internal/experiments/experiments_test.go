package experiments

import (
	"strings"
	"testing"

	"sacs/internal/population"
	"sacs/internal/runner"
)

// quickCfg keeps integration runs short while staying above the minimum
// lengths at which the qualitative claims still hold.
func quickCfg() Config { return Config{Seeds: 1, Scale: 0.3} }

func TestRegistryAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 {
		t.Fatalf("ids = %v", ids)
	}
	if ids[0] != "E1" || ids[9] != "E10" {
		t.Fatalf("numeric ordering broken: %v", ids)
	}
	reg := Registry()
	for _, id := range ids {
		if reg[id].Run == nil {
			t.Fatalf("missing runner for %s", id)
		}
	}
}

func TestSpecsStaticMetadata(t *testing.T) {
	// Listing must be possible without running anything, and the static
	// metadata must agree with what the runners stamp on their results.
	specs := Specs()
	if len(specs) != 18 {
		t.Fatalf("specs = %d, want 18", len(specs))
	}
	for _, sp := range specs {
		if sp.ID == "" || sp.Title == "" || sp.Claim == "" || sp.Run == nil {
			t.Fatalf("incomplete spec %+v", sp)
		}
	}
	r := specs[0].Run(Config{Seeds: 1, Scale: 0.05})
	if r.ID != specs[0].ID || r.Title != specs[0].Title || r.Claim != specs[0].Claim {
		t.Fatalf("result metadata diverged from spec: %q vs %q", r.Title, specs[0].Title)
	}
}

// TestParallelDeterminism is the suite-level contract of the runner
// subsystem: the same experiment config must yield bit-identical tables
// and figures whether the fan-out runs serially or on many workers.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"E1", "E6", "E4", "X5", "S1", "S2", "S3"} {
		spec := Registry()[id]
		cfg := Config{Seeds: 2, Scale: 0.05}
		serial := spec.Run(cfg)

		p := runner.New(8)
		cfg.Pool = p
		par := spec.Run(cfg)
		p.Close()

		if got, want := par.Table.String(), serial.Table.String(); got != want {
			t.Fatalf("%s: parallel table differs from serial:\n--- serial\n%s\n--- parallel\n%s",
				id, want, got)
		}
		if len(par.Figures) != len(serial.Figures) {
			t.Fatalf("%s: figure count differs", id)
		}
		for i := range par.Figures {
			if par.Figures[i].String() != serial.Figures[i].String() {
				t.Fatalf("%s: figure %d differs between serial and parallel", id, i)
			}
		}
	}
}

func TestE1ClaimHolds(t *testing.T) {
	r := E1CameraNetwork(quickCfg())
	if r.Table.NumRows() != 5 {
		t.Fatalf("rows = %d", r.Table.NumRows())
	}
	saU, _ := r.Table.Lookup("self-aware (learned)", "utility")
	saM, _ := r.Table.Lookup("self-aware (learned)", "messages")
	saH, _ := r.Table.Lookup("self-aware (learned)", "entropy")
	bestU, _ := r.Table.Lookup("active-broadcast", "utility")
	bestM, _ := r.Table.Lookup("active-broadcast", "messages")
	if saU < 0.8*bestU {
		t.Fatalf("self-aware utility %v below 80%% of best static %v", saU, bestU)
	}
	if saM > 0.5*bestM {
		t.Fatalf("self-aware messages %v not far below broadcast %v", saM, bestM)
	}
	if saH <= 0 {
		t.Fatal("no heterogeneity emerged")
	}
}

func TestE2ClaimHolds(t *testing.T) {
	r := E2GoalSwitch(quickCfg())
	// The self-aware scheduler must win the utility comparison in both
	// phases against every baseline.
	for _, phase := range []string{"util-perf-phase", "util-save-phase"} {
		sa, ok := r.Table.Lookup("self-aware", phase)
		if !ok {
			t.Fatalf("missing self-aware row/%s", phase)
		}
		for _, base := range []string{"static-max", "round-robin", "governor"} {
			b, _ := r.Table.Lookup(base, phase)
			if sa < b {
				t.Fatalf("%s: self-aware %v below %s %v", phase, sa, base, b)
			}
		}
	}
}

func TestE3ClaimHolds(t *testing.T) {
	r := E3VolunteerCloud(quickCfg())
	sa, _ := r.Table.Lookup("dispatch/self-aware", "success")
	lq, _ := r.Table.Lookup("dispatch/least-queue", "success")
	rr, _ := r.Table.Lookup("dispatch/round-robin", "success")
	if sa < lq || sa < rr {
		t.Fatalf("self-aware success %v not best (least-queue %v, rr %v)", sa, lq, rr)
	}
	saLat, _ := r.Table.Lookup("dispatch/self-aware", "mean-lat")
	rrLat, _ := r.Table.Lookup("dispatch/round-robin", "mean-lat")
	if saLat > rrLat {
		t.Fatalf("self-aware latency %v worse than round-robin %v", saLat, rrLat)
	}
	// Autoscaling: predictive cuts SLA violations vs reactive.
	pv, _ := r.Table.Lookup("scale/predictive", "sla-viol")
	rv, _ := r.Table.Lookup("scale/reactive", "sla-viol")
	if pv > rv {
		t.Fatalf("predictive sla-viol %v worse than reactive %v", pv, rv)
	}
}

func TestE4ClaimHolds(t *testing.T) {
	// E4 needs its full run length: at short scale the random link
	// failures may not intersect the static router's paths at all.
	r := E4CPNResilience(Config{Seeds: 2, Scale: 1})
	q, _ := r.Table.Lookup("self-aware q-routing", "loss-rate")
	s, _ := r.Table.Lookup("static-shortest-path", "loss-rate")
	if q >= s {
		t.Fatalf("q-routing loss %v not below static %v", q, s)
	}
	if len(r.Figures) == 0 || len(r.Figures[0].Series) != 3 {
		t.Fatal("E4 figure missing series")
	}
}

func TestE5ClaimHolds(t *testing.T) {
	r := E5LevelsAblation(quickCfg())
	stim, _ := r.Table.Lookup("stimulus", "mean-utility")
	goal, _ := r.Table.Lookup("+goal", "mean-utility")
	inter, _ := r.Table.Lookup("+interaction", "mean-utility")
	if goal <= stim {
		t.Fatalf("goal-level utility %v not above stimulus-only %v", goal, stim)
	}
	if inter < stim {
		t.Fatalf("interaction level regressed below stimulus: %v < %v", inter, stim)
	}
}

func TestE6ClaimHolds(t *testing.T) {
	r := E6MetaUnderDrift(quickCfg())
	metaDrift, _ := r.Table.Lookup("meta-portfolio", "reward-drift")
	epsDrift, _ := r.Table.Lookup("eps-greedy (fixed)", "reward-drift")
	if metaDrift <= epsDrift {
		t.Fatalf("meta drift reward %v not above exploit-heavy fixed learner %v",
			metaDrift, epsDrift)
	}
}

func TestE7ClaimHolds(t *testing.T) {
	r := E7Collective(quickCfg())
	for i := 0; i < r.Table.NumRows(); i++ {
		label := r.Table.RowLabel(i)
		ge, _ := r.Table.Lookup(label, "gossip-err-post-fail")
		ce, _ := r.Table.Lookup(label, "central-err-post-fail")
		if ge >= ce {
			t.Fatalf("%s: gossip post-failure error %v not below central %v", label, ge, ce)
		}
	}
	// Rounds grow sub-linearly: n ×64 should not multiply rounds by more
	// than ~4.
	r8, _ := r.Table.Lookup("n=8", "gossip-rounds-to-1%")
	r512, _ := r.Table.Lookup("n=512", "gossip-rounds-to-1%")
	if r512 > 4*r8 {
		t.Fatalf("gossip rounds not logarithmic-ish: %v at n=8, %v at n=512", r8, r512)
	}
}

func TestE8ClaimHolds(t *testing.T) {
	r := E8Attention(quickCfg())
	voi, _ := r.Table.Lookup("self-aware (voi)", "mean-abs-err")
	rr, _ := r.Table.Lookup("round-robin", "mean-abs-err")
	rnd, _ := r.Table.Lookup("random", "mean-abs-err")
	if voi >= rr || voi >= rnd {
		t.Fatalf("voi error %v not below round-robin %v / random %v", voi, rr, rnd)
	}
}

func TestE9ClaimHolds(t *testing.T) {
	r := E9Explanation(quickCfg())
	cov, ok := r.Table.Lookup("coverage: cite >=1 model", "value")
	if !ok || cov < 0.999 {
		t.Fatalf("model-citation coverage = %v", cov)
	}
	act, _ := r.Table.Lookup("coverage: >=1 action+reason", "value")
	if act < 0.999 {
		t.Fatalf("action coverage = %v", act)
	}
	out, _ := r.Table.Lookup("explain output (chars/decision)", "value")
	if out <= 0 {
		t.Fatalf("explanations rendered no output: %v chars/decision", out)
	}
}

func TestE10ClaimHolds(t *testing.T) {
	r := E10NoAPriori(quickCfg())
	dwA, _ := r.Table.Lookup("design-weighted", "success-envA")
	dwB, _ := r.Table.Lookup("design-weighted", "success-envB")
	saB, _ := r.Table.Lookup("self-aware", "success-envB")
	if saB < dwB {
		t.Fatalf("self-aware envB success %v below design-weighted %v", saB, dwB)
	}
	// The design model should be fine where its assumptions hold.
	if dwA < 0.95 {
		t.Fatalf("design-weighted should be strong in env A: %v", dwA)
	}
	p95dwB, _ := r.Table.Lookup("design-weighted", "p95-envB")
	p95saB, _ := r.Table.Lookup("self-aware", "p95-envB")
	if p95saB > p95dwB*1.5 {
		t.Fatalf("self-aware p95 in envB (%v) much worse than design-weighted (%v)",
			p95saB, p95dwB)
	}
}

func TestS1ScalingShape(t *testing.T) {
	r := S1PopulationScaling(Config{Seeds: 1, Scale: 0.05})
	if r.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 population sizes", r.Table.NumRows())
	}
	if got := ScalingIDs(); len(got) != 3 || got[0] != "S1" || got[1] != "S2" || got[2] != "S3" {
		t.Fatalf("ScalingIDs = %v", got)
	}
	for i := 0; i < r.Table.NumRows(); i++ {
		label := r.Table.RowLabel(i)
		agents, _ := r.Table.Lookup(label, "agents")
		steps, _ := r.Table.Lookup(label, "steps/tick")
		if steps != agents {
			t.Fatalf("%s: steps/tick %v != population %v", label, steps, agents)
		}
		// Ring gossip sends one message per agent per tick, plus a ~25%
		// random-gossip share: msgs/tick must sit in (agents, 2·agents).
		msgs, _ := r.Table.Lookup(label, "msgs/tick")
		if msgs <= agents || msgs >= 2*agents {
			t.Fatalf("%s: msgs/tick %v outside (n, 2n)", label, msgs)
		}
		// Work proxy: at least one unit per agent step each tick.
		p50, _ := r.Table.Lookup(label, "work-p50")
		p99, _ := r.Table.Lookup(label, "work-p99")
		if p50 < agents || p99 < p50 {
			t.Fatalf("%s: work quantiles inconsistent: p50=%v p99=%v", label, p50, p99)
		}
	}
}

// TestS2ResumeDeterminism is the acceptance check for the checkpoint
// subsystem: every S2 table row must report a perfect byte match for the
// disk-roundtripped resumed run, at 1 and at 8 workers, and across the two.
func TestS2ResumeDeterminism(t *testing.T) {
	r := S2CheckpointResume(Config{Seeds: 2, Scale: 0.25})
	if r.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want workers=1 and workers=8", r.Table.NumRows())
	}
	for _, row := range []string{"workers=1", "workers=8"} {
		m, ok := r.Table.Lookup(row, "resume-match")
		if !ok || m != 1 {
			t.Fatalf("%s: resume-match = %v, want 1 (resumed snapshot bytes differ from reference)", row, m)
		}
		x, _ := r.Table.Lookup(row, "xworker-match")
		if x != 1 {
			t.Fatalf("%s: xworker-match = %v, want 1 (reference bytes differ across worker counts)", row, x)
		}
		kib, _ := r.Table.Lookup(row, "snap-KiB")
		if kib <= 0 {
			t.Fatalf("%s: snapshot size %v", row, kib)
		}
	}
}

// TestS3ClusterEquivalence is the acceptance check for the multi-process
// shard transport: every S3 row — every cluster size — must report perfect
// per-tick, snapshot-byte, resume and elastic (worker kill → re-admission
// → live rebalance) matches against the single-process engine.
func TestS3ClusterEquivalence(t *testing.T) {
	r := S3ClusterEquivalence(Config{Seeds: 1, Scale: 0.25})
	if r.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want workers=1, 2 and 4", r.Table.NumRows())
	}
	for _, row := range []string{"workers=1", "workers=2", "workers=4"} {
		for _, col := range []string{"ticks-match", "snap-match", "resume-match", "elastic-match"} {
			v, ok := r.Table.Lookup(row, col)
			if !ok || v != 1 {
				t.Fatalf("%s: %s = %v, want 1 (cluster diverged from single-process run)", row, col, v)
			}
		}
		if kib, _ := r.Table.Lookup(row, "snap-KiB"); kib <= 0 {
			t.Fatalf("%s: snapshot size %v", row, kib)
		}
	}
}

// TestS2ConfigDegenerateSizes pins the workload against the sizes sawd
// accepts: a 1-agent population has no second peer to gossip to and must
// step without panicking.
func TestS2ConfigDegenerateSizes(t *testing.T) {
	for _, agents := range []int{1, 2} {
		rs := population.New(S2Config(agents, 1, 1, nil)).Run(30)
		if rs.Steps != int64(30*agents) {
			t.Fatalf("agents=%d: steps=%d", agents, rs.Steps)
		}
	}
}

func TestResultString(t *testing.T) {
	r := E7Collective(Config{Seeds: 1, Scale: 0.1})
	s := r.String()
	for _, want := range []string{"E7", "claim:", "push-sum"} {
		if !strings.Contains(s, want) {
			t.Fatalf("result string missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.defaults()
	if c.Seeds != 3 || c.Scale != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := (Config{Scale: 0.0001}).ticks(10000); got != 500 {
		t.Fatalf("minimum ticks = %d", got)
	}
}
