// Package core holds the fixture's stateful types and their state writers
// and readers.
package core

import (
	"fmt"

	"snapfix/codec"
)

// Agent writes and restores its own state.
type Agent struct {
	name    string
	steps   int
	encOnly int // want snapstate "encoded but never restored"
	decOnly int // want snapstate "restored but never encoded"
	limit   int // only consulted by the reader: outside both rules
	pos     Pos

	cache int // never in the state: no findings
}

// Pos is restored through a keyed composite literal.
type Pos struct {
	X, Y int
	Z    int // want snapstate "restored but never encoded"
}

// AppendState writes a. decOnly is deliberately missing.
func (a *Agent) AppendState(e *codec.Encoder) {
	e.Str(a.name)
	e.Int(a.steps)
	e.Int(a.encOnly)
	e.Int(a.pos.X)
	e.Int(a.pos.Y)
}

// RestoreState reads a back. encOnly is deliberately missing.
func (a *Agent) RestoreState(d *codec.Decoder) error {
	if name := d.Str(); name != a.name {
		return fmt.Errorf("state of %q applied to %q", name, a.name)
	}
	if a.steps = d.Int(); a.steps > a.limit {
		return fmt.Errorf("%d steps over limit %d", a.steps, a.limit)
	}
	a.decOnly = d.Int()
	a.pos = Pos{X: d.Int(), Y: d.Int(), Z: d.Int()}
	a.cache = 0
	return nil
}

// Runtime never meets the codec: not state, no findings.
type Runtime struct {
	Workers int
	Queue   []int
}
