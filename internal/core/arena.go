package core

// StepState is the hot per-agent state every Step call touches: the step
// counter, the per-tick counters of the built-in awareness processes, and
// the reused sensed-stimulus batch buffer. An agent built by New owns a
// private heap-allocated StepState; a population transport that steps many
// agents back to back moves them into one contiguous Arena block
// (Arena.Adopt) so a shard's step walks adjacent memory in agent order
// instead of pointer-chasing thousands of scattered heap objects.
//
// Only position-independent state lives here. The goal switcher itself
// (goals.Switcher) stays outside: it is a component the agent's builder
// hands in, with its own schedule position and snapshot state, and like a
// knowledge store it has one owner.
type StepState struct {
	Steps        int     // Step calls executed
	Interactions float64 // interaction-awareness running count
	GoalSwitches float64 // goal-awareness process's noticed-switch position

	stimBuf []Stimulus // Step's sensed-stimulus batch, reused across ticks
}

// Arena is a contiguous block of StepStates covering the agents of one
// shard, in step order. It exists purely for memory layout: adopting an
// agent changes no observable behaviour, no snapshot byte, and no RNG
// draw — Agent.AppendState reads the same numbers from the arena slot it
// read from the agent's private state before.
type Arena struct {
	slots []StepState
	used  int
}

// NewArena returns an arena with room for capacity agents.
func NewArena(capacity int) *Arena {
	return &Arena{slots: make([]StepState, capacity)}
}

// Adopt moves a's hot step state into the arena's next slot and re-points
// the agent (and its awareness processes) at it. Call once per agent, in
// the order the agents will later be stepped, so that stepping walks the
// arena front to back. Adopting more agents than the arena's capacity
// panics — it is always a sizing bug in the transport.
func (ar *Arena) Adopt(a *Agent) {
	if ar.used >= len(ar.slots) {
		panic("core: arena capacity exhausted")
	}
	slot := &ar.slots[ar.used]
	ar.used++
	*slot = *a.hot
	a.rebind(slot)
}

// Len reports how many agents the arena has adopted.
func (ar *Arena) Len() int { return ar.used }

// rebind points the agent and every process that writes through its hot
// state at the given slot. The slot must already hold the agent's current
// values (Adopt copies before rebinding).
func (a *Agent) rebind(s *StepState) {
	a.hot = s
	if a.interProc != nil {
		a.interProc.hot = s
	}
	if a.goalProc != nil {
		a.goalProc.hot = s
	}
}
