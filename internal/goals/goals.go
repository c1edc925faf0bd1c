package goals

import (
	"fmt"
	"sort"
	"strings"
)

// Direction says whether larger or smaller metric values are better.
type Direction int

// Direction values.
const (
	Maximize Direction = iota
	Minimize
)

// String returns "max" or "min".
func (d Direction) String() string {
	if d == Minimize {
		return "min"
	}
	return "max"
}

// Objective is one stakeholder concern: a named metric with a direction, a
// relative weight, and an optional hard constraint (a bound the metric must
// satisfy: ≥ Bound when maximising, ≤ Bound when minimising).
type Objective struct {
	Name      string
	Direction Direction
	Weight    float64
	// Scale normalises the metric into comparable units; utility
	// contributions are Weight · value/Scale (negated when minimising).
	// Zero means Scale 1.
	Scale float64
	// Constrained marks a hard constraint at Bound.
	Constrained bool
	Bound       float64
}

func (o Objective) scale() float64 {
	if o.Scale == 0 {
		return 1
	}
	return o.Scale
}

// Satisfied reports whether value meets the objective's constraint (always
// true for unconstrained objectives).
func (o Objective) Satisfied(value float64) bool {
	if !o.Constrained {
		return true
	}
	if o.Direction == Maximize {
		return value >= o.Bound
	}
	return value <= o.Bound
}

// Contribution returns the objective's signed utility contribution for a
// metric value.
func (o Objective) Contribution(value float64) float64 {
	c := o.Weight * value / o.scale()
	if o.Direction == Minimize {
		return -c
	}
	return c
}

// Set is a named collection of objectives constituting the system's current
// goal. Sets are immutable once built; run-time goal change is modelled by a
// Switcher replacing the active set.
type Set struct {
	Name       string
	objectives []Objective
}

// NewSet builds a goal set. Objective names must be unique.
func NewSet(name string, objectives ...Objective) *Set {
	seen := make(map[string]bool, len(objectives))
	for _, o := range objectives {
		if seen[o.Name] {
			panic(fmt.Sprintf("goals: duplicate objective %q in set %q", o.Name, name))
		}
		seen[o.Name] = true
	}
	s := &Set{Name: name, objectives: make([]Objective, len(objectives))}
	copy(s.objectives, objectives)
	return s
}

// Objectives returns a copy of the set's objectives.
func (s *Set) Objectives() []Objective {
	out := make([]Objective, len(s.objectives))
	copy(out, s.objectives)
	return out
}

// Objective returns the named objective and whether it exists.
func (s *Set) Objective(name string) (Objective, bool) {
	for _, o := range s.objectives {
		if o.Name == name {
			return o, true
		}
	}
	return Objective{}, false
}

// Utility aggregates a metric vector into scalar utility. Missing metrics
// contribute zero. Each violated constraint subtracts a fixed penalty of
// 10·Weight, so constraint satisfaction lexicographically dominates small
// weight differences in practice while keeping the scale smooth for
// learners.
func (s *Set) Utility(metrics map[string]float64) float64 {
	u := 0.0
	for _, o := range s.objectives {
		v, ok := metrics[o.Name]
		if !ok {
			continue
		}
		u += o.Contribution(v)
		if !o.Satisfied(v) {
			u -= 10 * o.Weight
		}
	}
	return u
}

// Violations returns the names of constrained objectives whose constraint
// the metric vector violates.
func (s *Set) Violations(metrics map[string]float64) []string {
	var out []string
	for _, o := range s.objectives {
		if v, ok := metrics[o.Name]; ok && !o.Satisfied(v) {
			out = append(out, o.Name)
		}
	}
	sort.Strings(out)
	return out
}

// ViolationCount returns how many constrained objectives the metric vector
// violates: len(Violations(metrics)) without building the list.
func (s *Set) ViolationCount(metrics map[string]float64) int {
	n := 0
	for _, o := range s.objectives {
		if v, ok := metrics[o.Name]; ok && !o.Satisfied(v) {
			n++
		}
	}
	return n
}

// String renders the goal set compactly.
func (s *Set) String() string {
	parts := make([]string, 0, len(s.objectives))
	for _, o := range s.objectives {
		p := fmt.Sprintf("%s(%s,w=%.2g)", o.Name, o.Direction, o.Weight)
		if o.Constrained {
			p += fmt.Sprintf("[bound %.3g]", o.Bound)
		}
		parts = append(parts, p)
	}
	return fmt.Sprintf("%s{%s}", s.Name, strings.Join(parts, " "))
}

// Dominates reports whether metric vector a Pareto-dominates b under the
// set's objectives: at least as good in all, strictly better in one.
func (s *Set) Dominates(a, b map[string]float64) bool {
	better := false
	for _, o := range s.objectives {
		av, aok := a[o.Name]
		bv, bok := b[o.Name]
		if !aok || !bok {
			continue
		}
		if o.Direction == Minimize {
			av, bv = -av, -bv
		}
		if av < bv {
			return false
		}
		if av > bv {
			better = true
		}
	}
	return better
}

// Switcher holds the active goal set and a schedule of run-time switches,
// operationalising "goals change while the system runs". A switcher has one
// owner at a time, as a knowledge store does: nothing in it is
// synchronized, so it is used by one goroutine at a time, and a hand-over
// between goroutines must order the accesses. A population panics at
// construction when two of its agents would share a switcher.
type Switcher struct {
	active   *Set
	schedule []switchAt
	next     int
	Switches int
}

type switchAt struct {
	at  float64
	set *Set
}

// NewSwitcher returns a switcher starting with initial.
func NewSwitcher(initial *Set) *Switcher {
	if initial == nil {
		panic("goals: NewSwitcher requires an initial set")
	}
	return &Switcher{active: initial}
}

// ScheduleSwitch arranges for set to become active at virtual time at.
// Switches must be scheduled in increasing time order.
func (w *Switcher) ScheduleSwitch(at float64, set *Set) {
	if n := len(w.schedule); n > 0 && w.schedule[n-1].at > at {
		panic("goals: switches must be scheduled in time order")
	}
	w.schedule = append(w.schedule, switchAt{at: at, set: set})
}

// Tick applies any due switches and returns the active set. changed is true
// when a switch fired at this tick.
func (w *Switcher) Tick(now float64) (active *Set, changed bool) {
	for w.next < len(w.schedule) && w.schedule[w.next].at <= now {
		w.active = w.schedule[w.next].set
		w.next++
		w.Switches++
		changed = true
	}
	return w.active, changed
}

// Active returns the current goal set without advancing the schedule.
func (w *Switcher) Active() *Set { return w.active }
