package core

import (
	"strings"
	"testing"

	"sacs/internal/goals"
	"sacs/internal/knowledge"
)

func TestCapabilities(t *testing.T) {
	c := Caps(LevelStimulus, LevelGoal)
	if !c.Has(LevelStimulus) || !c.Has(LevelGoal) || c.Has(LevelTime) {
		t.Fatal("Caps membership wrong")
	}
	c = c.With(LevelTime)
	if !c.Has(LevelTime) {
		t.Fatal("With failed")
	}
	c = c.Without(LevelGoal)
	if c.Has(LevelGoal) {
		t.Fatal("Without failed")
	}
	if FullStack.String() != "stimulus+interaction+time+goal+meta" {
		t.Fatalf("FullStack string = %q", FullStack.String())
	}
	if Capabilities(0).String() != "none" {
		t.Fatal("empty capability string")
	}
	if LevelMeta.String() != "meta" || Level(99).String() == "meta" {
		t.Fatal("level strings")
	}
}

func TestScalarSensor(t *testing.T) {
	s := ScalarSensor("temp", Public, func(now float64) float64 { return now * 2 })
	if s.Name() != "temp" {
		t.Fatal("sensor name")
	}
	batch := s.SenseInto(3, nil)
	if len(batch) != 1 || batch[0].Value != 6 || batch[0].Scope != Public || batch[0].Time != 3 {
		t.Fatalf("sensed %+v", batch)
	}
}

func TestActionString(t *testing.T) {
	a := Action{Name: "set-freq", Target: "core1", Value: 2}
	if !strings.Contains(a.String(), "core1") {
		t.Fatal("action string missing target")
	}
	b := Action{Name: "go", Value: 1.5}
	if !strings.Contains(b.String(), "1.5") {
		t.Fatal("action string missing value")
	}
}

func mkAgent(caps Capabilities, gsw *goals.Switcher) (*Agent, *float64) {
	val := new(float64)
	return New(Config{
		Name:  "t",
		Caps:  caps,
		Goals: gsw,
		Sensors: []Sensor{
			ScalarSensor("x", Private, func(float64) float64 { return *val }),
		},
	}), val
}

func TestLevelGatingCreatesModels(t *testing.T) {
	full, v := mkAgent(FullStack, nil)
	*v = 5
	for i := 0; i < 10; i++ {
		full.Step(float64(i), nil)
	}
	if full.Store().Value("stim/x", -1) != 5 {
		t.Fatal("stimulus model missing")
	}
	if full.Store().Get("pred/x") == nil {
		t.Fatal("full-stack agent should have time-awareness predictions")
	}

	low, v2 := mkAgent(Caps(LevelStimulus), nil)
	*v2 = 5
	for i := 0; i < 10; i++ {
		low.Step(float64(i), nil)
	}
	if low.Store().Get("pred/x") != nil {
		t.Fatal("stimulus-only agent must not build predictions")
	}
	if low.Meta() != nil {
		t.Fatal("stimulus-only agent must not have a meta monitor")
	}
	if full.Meta() == nil {
		t.Fatal("full-stack agent should have a meta monitor")
	}
}

func TestGoalProcessTracksUtilityAndSwitches(t *testing.T) {
	g1 := goals.NewSet("g1", goals.Objective{Name: "m", Direction: goals.Maximize, Weight: 1})
	g2 := goals.NewSet("g2", goals.Objective{Name: "m", Direction: goals.Minimize, Weight: 1})
	sw := goals.NewSwitcher(g1)
	sw.ScheduleSwitch(5, g2)
	a, _ := mkAgent(FullStack, sw)

	a.Step(0, map[string]float64{"m": 3})
	if u := a.Store().Value("goal/utility", -99); u != 3 {
		t.Fatalf("utility under g1 = %v, want 3", u)
	}
	a.Step(6, map[string]float64{"m": 3})
	if u := a.Store().Value("goal/utility", -99); u != -3 {
		t.Fatalf("utility under g2 = %v, want -3", u)
	}
	if s := a.Store().Value("goal/switches", -1); s != 1 {
		t.Fatalf("goal/switches = %v", s)
	}
}

func TestInteractionProcessModelsPeers(t *testing.T) {
	a, _ := mkAgent(FullStack, nil)
	a.Inject(1, []Stimulus{
		{Name: "load", Source: "peer-7", Scope: Public, Value: 0.8, Time: 1},
		{Name: "own", Source: "t", Scope: Private, Value: 0.1, Time: 1},
	})
	if v := a.Store().Value("peer/peer-7/load", -1); v != 0.8 {
		t.Fatalf("peer model = %v", v)
	}
	if a.Store().Get("peer/t/own") != nil {
		t.Fatal("own stimuli must not create peer models")
	}
	if n := a.Store().Value("interactions", -1); n != 1 {
		t.Fatalf("interaction count = %v", n)
	}
}

func TestReasonerEffectorLoop(t *testing.T) {
	executed := []Action{}
	agent := New(Config{
		Name: "loop",
		Sensors: []Sensor{
			ScalarSensor("s", Private, func(float64) float64 { return 2 }),
		},
		Reasoner: ReasonerFunc{ReasonerName: "r", Fn: func(d *Decision) {
			v := d.Consult("stim/s", 0)
			d.Choose(Action{Name: "act", Value: v * 10}, "because s=%v", v)
		}},
		Effectors: []Effector{EffectorFunc{EffectorName: "act", Fn: func(a Action) error {
			executed = append(executed, a)
			return nil
		}}},
	})
	acts := agent.Step(0, nil)
	if len(acts) != 1 || len(executed) != 1 || executed[0].Value != 20 {
		t.Fatalf("effector loop: %v %v", acts, executed)
	}
	if agent.Explainer().Len() != 1 {
		t.Fatal("decision not recorded")
	}
	why := agent.Explainer().WhyLast()
	if !strings.Contains(why, "stim/s") || !strings.Contains(why, "because s=2") {
		t.Fatalf("explanation incomplete: %s", why)
	}
}

func TestUnroutedActionReported(t *testing.T) {
	agent := New(Config{
		Name: "u",
		Reasoner: ReasonerFunc{ReasonerName: "r", Fn: func(d *Decision) {
			d.Choose(Action{Name: "nonexistent"}, "testing")
		}},
		Effectors: []Effector{EffectorFunc{EffectorName: "real", Fn: func(Action) error { return nil }}},
	})
	agent.Step(0, nil)
	why := agent.Explainer().WhyLast()
	if !strings.Contains(why, "no effector") {
		t.Fatalf("unrouted action not reported: %s", why)
	}
}

func TestAgentDescribe(t *testing.T) {
	a, _ := mkAgent(Caps(LevelStimulus, LevelTime), nil)
	a.Step(0, nil)
	desc := a.Describe(0)
	for _, want := range []string{"agent t", "stimulus+time", "steps=1"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("describe missing %q: %s", want, desc)
		}
	}
}

func TestAgentRequiresName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nameless agent did not panic")
		}
	}()
	New(Config{})
}

func TestAddSensorAtRuntime(t *testing.T) {
	a, _ := mkAgent(FullStack, nil)
	a.AddSensor(ScalarSensor("late", Private, func(float64) float64 { return 9 }))
	a.Step(0, nil)
	if a.Store().Value("stim/late", -1) != 9 {
		t.Fatal("run-time sensor not integrated")
	}
}

func TestMAPEKRules(t *testing.T) {
	m := NewMAPEK(
		Rule{Name: "scale-up", When: func(k map[string]float64) bool { return k["load"] > 0.8 },
			Then: Action{Name: "up"}},
		Rule{Name: "scale-down", When: func(k map[string]float64) bool { return k["load"] < 0.2 },
			Then: Action{Name: "down"}},
	)
	acts := m.Step(0, map[string]float64{"load": 0.9})
	if len(acts) != 1 || acts[0].Name != "up" {
		t.Fatalf("rule firing wrong: %v", acts)
	}
	acts = m.Step(1, map[string]float64{"load": 0.5})
	if len(acts) != 0 {
		t.Fatalf("no rule should fire at 0.5: %v", acts)
	}
	if m.Fired != 1 {
		t.Fatalf("Fired = %d", m.Fired)
	}
	if !strings.Contains(m.String(), "2 rules") {
		t.Fatal("MAPEK String")
	}
	if m.Knowledge["load"] != 0.5 {
		t.Fatal("knowledge not refreshed")
	}
}

func TestDecisionCandidates(t *testing.T) {
	d := &Decision{Now: 1}
	if _, _, ok := d.BestCandidate(); ok {
		t.Fatal("empty decision has no best candidate")
	}
	d.Score("a", 1)
	d.Score("b", 5)
	d.Score("c", 3)
	label, score, ok := d.BestCandidate()
	if !ok || label != "b" || score != 5 {
		t.Fatalf("best candidate = %v %v %v", label, score, ok)
	}
	if !strings.Contains(d.Explain(), "no action") {
		t.Fatal("inaction should be explained")
	}
}

func TestExplainerRingRecency(t *testing.T) {
	e := NewExplainer(3)
	if e.Last() != nil {
		t.Fatal("empty explainer Last should be nil")
	}
	for i := 0; i < 5; i++ {
		e.Record(&Decision{Now: float64(i)})
	}
	if e.Len() != 3 || e.Recorded != 5 {
		t.Fatalf("len=%d recorded=%d", e.Len(), e.Recorded)
	}
	if e.Last().Now != 4 {
		t.Fatalf("Last().Now = %v", e.Last().Now)
	}
	recent := e.Recent(2)
	if len(recent) != 2 || recent[0].Now != 4 || recent[1].Now != 3 {
		t.Fatalf("Recent order wrong: %v %v", recent[0].Now, recent[1].Now)
	}
	tr := e.Transcript(3)
	if strings.Count(tr, "\n") != 3 {
		t.Fatalf("transcript lines: %q", tr)
	}
	if NewExplainer(0).depth != 32 {
		t.Fatal("default depth")
	}
}

func TestKnowledgeScopeAlias(t *testing.T) {
	// The core package must expose the knowledge scopes unchanged.
	if Private != knowledge.Private || Public != knowledge.Public {
		t.Fatal("scope aliases broken")
	}
}
