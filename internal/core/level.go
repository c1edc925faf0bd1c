package core

import (
	"fmt"
	"strings"

	"sacs/internal/knowledge"
)

// Level enumerates the levels of computational self-awareness, translated
// from Neisser's levels of human self-knowledge by Faniyi et al. [44] as the
// paper describes. Higher levels presuppose richer knowledge but not
// necessarily the lower levels; Capabilities expresses an agent's actual
// set.
type Level int

// The five levels.
const (
	// LevelStimulus is basic awareness of environmental and internal
	// stimuli: the agent knows current readings, nothing more.
	LevelStimulus Level = iota
	// LevelInteraction is awareness of interactions: the agent models the
	// effects of exchanges with its environment and with other agents.
	LevelInteraction
	// LevelTime is awareness of history and likely futures: the agent keeps
	// bounded history and forecasts.
	LevelTime
	// LevelGoal is awareness of the agent's own goals, objectives and
	// constraints, including changes to them at run time.
	LevelGoal
	// LevelMeta is meta-self-awareness: awareness of the agent's own
	// awareness processes and their quality.
	LevelMeta
)

var levelNames = [...]string{"stimulus", "interaction", "time", "goal", "meta"}

// String returns the lower-case level name.
func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return levelNames[l]
}

// Capabilities is a bit set of Levels an agent possesses.
type Capabilities uint8

// Caps builds a Capabilities set from the given levels.
func Caps(levels ...Level) Capabilities {
	var c Capabilities
	for _, l := range levels {
		c |= 1 << uint(l)
	}
	return c
}

// FullStack has every level: the "full-stack computational self-awareness"
// of the paper's §IV.
const FullStack = Capabilities(1<<uint(LevelStimulus) | 1<<uint(LevelInteraction) |
	1<<uint(LevelTime) | 1<<uint(LevelGoal) | 1<<uint(LevelMeta))

// Has reports whether the set contains level l.
func (c Capabilities) Has(l Level) bool { return c&(1<<uint(l)) != 0 }

// With returns a copy of c that also has l.
func (c Capabilities) With(l Level) Capabilities { return c | 1<<uint(l) }

// Without returns a copy of c lacking l.
func (c Capabilities) Without(l Level) Capabilities { return c &^ (1 << uint(l)) }

// String lists the contained levels, e.g. "stimulus+time+goal".
func (c Capabilities) String() string {
	var parts []string
	for l := LevelStimulus; l <= LevelMeta; l++ {
		if c.Has(l) {
			parts = append(parts, l.String())
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Scope aliases knowledge.Scope so that substrates only import core.
type Scope = knowledge.Scope

// Scope values re-exported for convenience.
const (
	Private = knowledge.Private
	Public  = knowledge.Public
)

// Stimulus is one observation delivered by a sensor: the raw material of
// self-awareness. Source identifies the originating entity (empty or the
// agent's own name for private phenomena; a peer's name for social ones).
type Stimulus struct {
	Name   string
	Source string
	Scope  Scope
	Value  float64
	Time   float64
}

// Sensor produces stimuli on demand. Sensing may be costly; the Attention
// scheduler decides which sensors to sample each step when a budget is set.
type Sensor interface {
	// Name identifies the sensor.
	Name() string
	// SenseInto appends the stimuli observable now to buf and returns the
	// extended slice. buf is the agent's batch buffer, reused every step,
	// so steady-state sensing allocates nothing; implementations must not
	// retain it.
	SenseInto(now float64, buf []Stimulus) []Stimulus
}

// ScalarSensor adapts a scalar-returning function to Sensor, producing one
// stimulus named after the sensor.
func ScalarSensor(name string, scope Scope, fn func(now float64) float64) Sensor {
	return &scalarSensor{name: name, scope: scope, fn: fn}
}

// scalarSensor is ScalarSensor's concrete type: one stimulus per sample,
// appended in place on the hot path.
type scalarSensor struct {
	name  string
	scope Scope
	fn    func(now float64) float64
}

// Name implements Sensor.
func (s *scalarSensor) Name() string { return s.name }

// SenseInto implements Sensor.
//
//sacs:hotpath
func (s *scalarSensor) SenseInto(now float64, buf []Stimulus) []Stimulus {
	return append(buf, Stimulus{Name: s.name, Scope: s.scope, Value: s.fn(now), Time: now})
}

// Action is one self-expressive act: a named command with a scalar argument
// and an optional target (e.g. which core, which route).
type Action struct {
	Name   string
	Target string
	Value  float64
}

// String renders the action compactly.
func (a Action) String() string {
	if a.Target != "" {
		return fmt.Sprintf("%s(%s=%.4g)", a.Name, a.Target, a.Value)
	}
	return fmt.Sprintf("%s(%.4g)", a.Name, a.Value)
}

// Effector executes actions: the self-expression half of the loop.
type Effector interface {
	// Name identifies the effector; actions are routed by Action.Name.
	Name() string
	// Act applies the action to the underlying system.
	Act(a Action) error
}

// EffectorFunc adapts a function to the Effector interface.
type EffectorFunc struct {
	EffectorName string
	Fn           func(a Action) error
}

// Name implements Effector.
func (e EffectorFunc) Name() string { return e.EffectorName }

// Act implements Effector.
func (e EffectorFunc) Act(a Action) error { return e.Fn(a) }
