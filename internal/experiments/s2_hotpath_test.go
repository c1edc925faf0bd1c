package experiments

import (
	"math/rand"
	"testing"
)

// TestS2AgentStepAllocFree: an S2 agent on its private store,
// stepped past the tick-60 switch to the constrained surge goal, allocates
// nothing per Step. The surge goal's load constraint is violated at almost
// every step, so the goal level must count violations without building
// the list of their names.
func TestS2AgentStepAllocFree(t *testing.T) {
	a := S2Config(1, 1, 1, nil).New(0, rand.New(rand.NewSource(1)))
	now := 0.0
	for ; now < 201; now++ {
		a.Step(now, nil)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Step(now, nil)
		now++
	}); allocs != 0 {
		t.Fatalf("S2 agent Step past tick 200 allocates %v times per call, want 0", allocs)
	}
	if v := a.Store().Value("goal/violations", 0); v != 1 {
		t.Fatalf("goal/violations = %v, want the surge constraint violated (1)", v)
	}
}
