package core

import (
	"strings"
	"testing"
)

func benchAgent(explainDepth int) (*Agent, *float64) {
	val := 0.0
	a := New(Config{
		Name: "hot",
		Caps: FullStack,
		Sensors: []Sensor{
			ScalarSensor("a", Private, func(float64) float64 { return val }),
			ScalarSensor("b", Private, func(float64) float64 { return val * 2 }),
		},
		Reasoner: ReasonerFunc{ReasonerName: "r", Fn: func(d *Decision) {
			d.Consult("stim/a", 0)
			d.Choose(Action{Name: "noop"}, "steady")
		}},
		Effectors: []Effector{EffectorFunc{
			EffectorName: "noop", Fn: func(Action) error { return nil }}},
		ExplainDepth: explainDepth,
	})
	return a, &val
}

// TestAgentStepSteadyStateAllocFree pins the tentpole: once warmed up
// (models interned, pools filled), a full-stack agent step performs zero
// heap allocations.
func TestAgentStepSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"explainer", 0}, // default depth 32: decisions recycle through the ring
		{"no-explainer", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, val := benchAgent(tc.depth)
			now := 0.0
			for i := 0; i < 100; i++ { // warm-up: fill pools, intern keys
				*val = float64(i % 10)
				a.Step(now, nil)
				now++
			}
			// Steady state proper: a stationary signal, so the meta level
			// has no drift to react to (a strategy swap legitimately
			// allocates fresh predictors; that is adaptation, not hot-path
			// overhead).
			*val = 4
			for i := 0; i < 50; i++ {
				a.Step(now, nil)
				now++
			}
			avg := testing.AllocsPerRun(200, func() {
				a.Step(now, nil)
				now++
			})
			if avg != 0 {
				t.Fatalf("steady-state Step allocates %.2f times per call, want 0", avg)
			}
		})
	}
}

// TestDecisionPoolingKeepsExplanationsIntact: recycling Decision contexts
// through the explainer ring must not corrupt the retained window — each of
// the last `depth` decisions still renders its own step's data.
func TestDecisionPoolingKeepsExplanationsIntact(t *testing.T) {
	a, val := benchAgent(4) // tiny ring forces heavy recycling
	for i := 0; i < 50; i++ {
		*val = float64(i)
		a.Step(float64(i), nil)
	}
	ex := a.Explainer()
	if ex.Len() != 4 {
		t.Fatalf("ring holds %d decisions, want 4", ex.Len())
	}
	recent := ex.Recent(4)
	for j, d := range recent {
		wantNow := float64(49 - j)
		if d.Now != wantNow {
			t.Fatalf("recent[%d].Now = %v, want %v", j, d.Now, wantNow)
		}
		if !strings.Contains(d.Explain(), "stim/a") {
			t.Fatalf("recent[%d] lost its consultation: %q", j, d.Explain())
		}
	}
	if ex.Recorded != 50 {
		t.Fatalf("Recorded = %d, want 50", ex.Recorded)
	}
}

// TestStepReturnedActionsValidUntilNextStep pins the documented pooling
// contract: the slice Step returns reflects this step's choices and is
// overwritten by the next Step.
func TestStepReturnedActionsValidUntilNextStep(t *testing.T) {
	a, _ := benchAgent(-1)
	first := a.Step(0, nil)
	if len(first) != 1 || first[0].Name != "noop" {
		t.Fatalf("first step chose %v", first)
	}
	second := a.Step(1, nil)
	if len(second) != 1 || second[0].Name != "noop" {
		t.Fatalf("second step chose %v", second)
	}
}

// TestDescribeUsesNow: the self-report must anchor to the caller's clock,
// not ignore it (the old signature took now and dropped it).
func TestDescribeUsesNow(t *testing.T) {
	a, _ := benchAgent(-1)
	a.Step(0, nil)
	d5, d9 := a.Describe(5), a.Describe(9.25)
	if d5 == d9 {
		t.Fatalf("Describe ignores now: %q", d5)
	}
	if !strings.Contains(d5, "t=5") || !strings.Contains(d9, "t=9.25") {
		t.Fatalf("Describe missing time context: %q / %q", d5, d9)
	}
}

// TestProcessGatePrecomputed: an ExtraProcess outside the agent's
// capability set must never observe, and one inside must observe on every
// Step and Inject — same gating as before, now precomputed.
func TestProcessGatePrecomputed(t *testing.T) {
	calls := map[Level]int{}
	mk := func(l Level) Process {
		return processFunc{level: l, fn: func(now float64, batch []Stimulus) { calls[l]++ }}
	}
	a := New(Config{
		Name:           "gate",
		Caps:           Caps(LevelStimulus, LevelGoal),
		ExtraProcesses: []Process{mk(LevelGoal), mk(LevelMeta)},
		ExplainDepth:   -1,
	})
	a.Step(0, nil)
	a.Inject(0, nil)
	if calls[LevelGoal] != 2 || calls[LevelMeta] != 0 {
		t.Fatalf("gating broke: %v", calls)
	}
}

type processFunc struct {
	level Level
	fn    func(now float64, batch []Stimulus)
}

func (p processFunc) Name() string                          { return "test-process" }
func (p processFunc) Level() Level                          { return p.level }
func (p processFunc) Observe(now float64, batch []Stimulus) { p.fn(now, batch) }
