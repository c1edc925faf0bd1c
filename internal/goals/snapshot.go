package goals

import (
	"fmt"

	"sacs/internal/codec"
)

// AppendState writes the switcher's run-time position: how far through its
// schedule it has advanced and how many switches have fired. The goal sets
// themselves are design-time code, so a restored Switcher is rebuilt with
// the same initial set and schedule and then repositioned by RestoreState.
func (w *Switcher) AppendState(e *codec.Encoder) {
	e.Int(w.next)
	e.Int(w.Switches)
}

// RestoreState repositions the switcher from the bytes AppendState wrote,
// recomputing the active set from the schedule position. The receiver must
// carry the same schedule the writer had; a position beyond it is an
// error.
func (w *Switcher) RestoreState(d *codec.Decoder) error {
	next, switches := d.Int(), d.Int()
	if next < 0 || next > len(w.schedule) {
		return fmt.Errorf("goals: switcher state next=%d outside schedule of %d entries", next, len(w.schedule))
	}
	w.next = next
	w.Switches = switches
	if next > 0 {
		w.active = w.schedule[next-1].set
	}
	return nil
}
