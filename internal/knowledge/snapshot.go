package knowledge

import (
	"fmt"
	"sort"
)

// EntryState is the exported, serialisable form of one Entry: everything a
// restored store needs to continue producing byte-identical estimates,
// confidences and trends. HistT/HistV hold the bounded history oldest-first
// (nil when the store keeps no history); ring rotation is not preserved
// because every reader of a Ring is rotation-invariant.
type EntryState struct {
	Name         string
	Scope        Scope
	Value        float64
	Variance     float64
	N            int
	LastUpdate   float64
	HistT, HistV []float64
}

// StoreState is the exported form of a whole Store, with entries sorted by
// name so that two equal stores always export equal states.
type StoreState struct {
	Alpha   float64
	HistLen int
	Reads   int64 // instrumentation counters, restored for E9-style accounting
	Writes  int64
	Entries []EntryState
}

// State exports the store's complete contents. It takes the registry lock
// and every entry lock, so it must not run concurrently with a caller that
// holds entry locks; population checkpointing calls it only at tick
// barriers, when no shard job is in flight.
func (s *Store) State() StoreState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreState{
		Alpha:   s.alpha,
		HistLen: s.histLen,
		Reads:   s.reads.Load() + s.readsU,
		Writes:  s.writes.Load() + s.writesU,
		Entries: make([]EntryState, 0, len(s.entries)),
	}
	for _, e := range s.entries {
		e.mu.RLock()
		es := EntryState{
			Name:       e.Name,
			Scope:      e.Scope,
			Value:      e.value,
			Variance:   e.variance,
			N:          e.n,
			LastUpdate: e.lastUpdate,
		}
		if e.hist != nil {
			es.HistT = e.hist.Times()
			es.HistV = e.hist.Values()
		}
		e.mu.RUnlock()
		st.Entries = append(st.Entries, es)
	}
	sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Name < st.Entries[j].Name })
	return st
}

// SetState replaces the store's contents with a previously exported state.
// The store's smoothing factor and history length are overwritten too, so a
// restored store behaves exactly like the one that was exported. The symbol
// table survives: every interned Key is re-pointed at the restored entry of
// the same name (or at nothing, when the state has no such model), so
// processes that cached keys before the restore keep working.
//
// The restored entries and their rings come out of one entryBox block, and
// every history out of one float slab, both sized from st: a resume
// restores every store of every agent, so it costs a few allocations per
// store rather than several per entry. Each history is copied straight
// into a ring of the backing length NewRing plus its Pushes would have
// grown to, so later growth, Trend and State are exactly the exporter's.
func (s *Store) SetState(st StoreState) error {
	floats := 0
	for _, es := range st.Entries {
		if len(es.HistT) != len(es.HistV) {
			return fmt.Errorf("knowledge: entry %q history length mismatch (%d times, %d values)",
				es.Name, len(es.HistT), len(es.HistV))
		}
		if st.HistLen > 0 {
			if len(es.HistT) > st.HistLen {
				return fmt.Errorf("knowledge: entry %q history %d exceeds ring capacity %d",
					es.Name, len(es.HistT), st.HistLen)
			}
			floats += 2 * ringLen(st.HistLen, len(es.HistT))
		}
	}
	boxes := make([]entryBox, len(st.Entries))
	var slab []float64
	if floats > 0 {
		slab = make([]float64, floats)
	}
	entries := make(map[string]*Entry, len(st.Entries))
	for i, es := range st.Entries {
		if _, dup := entries[es.Name]; dup {
			return fmt.Errorf("knowledge: duplicate entry %q in store state", es.Name)
		}
		box := &boxes[i]
		box.e = Entry{
			Name:       es.Name,
			Scope:      es.Scope,
			alpha:      st.Alpha,
			noLock:     s.unshared,
			value:      es.Value,
			variance:   es.Variance,
			n:          es.N,
			lastUpdate: es.LastUpdate,
		}
		if st.HistLen > 0 {
			n := 2 * ringLen(st.HistLen, len(es.HistT))
			box.r.restore(slab[:n:n], es.HistT, es.HistV, st.HistLen)
			slab = slab[n:]
			box.e.hist = &box.r
		}
		entries[es.Name] = &box.e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alpha = st.Alpha
	s.histLen = st.HistLen
	s.entries = entries
	for i := range s.slots {
		s.slots[i].e = entries[s.slots[i].name]
	}
	s.reads.Store(st.Reads)
	s.writes.Store(st.Writes)
	s.readsU, s.writesU = 0, 0
	return nil
}
