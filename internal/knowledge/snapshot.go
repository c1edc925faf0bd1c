package knowledge

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"

	"sacs/internal/codec"
)

// minEntrySize is the fewest bytes one entry can be spelled in: an empty
// name, a scope, three floats, a count and two empty histories.
const minEntrySize = 29

// AppendState writes the store's complete contents to e: its parameters
// and counters, then the entries in name order, so equal stores write
// equal bytes, each with its history oldest-first (ring rotation and
// backing size are not written). It writes to the store too — the kept
// name order changes here (see exportOrder) — so, like every other use of
// the store, it needs the store's one owner: population checkpointing
// calls it only at tick barriers, from the job that encodes the agent's
// shard.
func (s *Store) AppendState(e *codec.Encoder) {
	e.F64(s.kin.alpha)
	e.Int(s.kin.histLen)
	e.Varint(s.reads)
	e.Varint(s.writes)
	sorted := s.exportOrder()
	e.Uvarint(uint64(len(sorted)))
	for _, en := range sorted {
		e.Str(en.Name)
		e.Int(int(en.Scope))
		e.F64(en.value)
		e.F64(en.variance)
		e.Int(en.n)
		e.F64(en.lastUpdate)
		if en.hist != nil {
			en.hist.appendWindow(e, en.hist.times())
			en.hist.appendWindow(e, en.hist.values())
		} else {
			// No ring: the history is the entry's own (see ringless).
			e.Uvarint(0)
			e.Uvarint(0)
		}
	}
}

// exportOrder returns the live entries in strictly increasing name order
// and keeps that order for the next export. A store exported or restored
// before merges: the entries created since (a few, between two
// checkpoints) are sorted and merged into the kept order, and entries
// deleted since are dropped from it. Any other store sorts all its
// entries, once.
func (s *Store) exportOrder() []*Entry {
	if !s.kept {
		order := s.liveEntries(make([]*Entry, 0, s.live))
		slices.SortFunc(order, byName)
		s.kept, s.order, s.dropped = true, order, false
		return order
	}
	if s.restored == nil && len(s.fresh) == 0 && !s.dropped {
		return s.order
	}
	fresh := s.fresh
	if s.dropped {
		fresh = slices.DeleteFunc(fresh, s.deleted)
	}
	slices.SortFunc(fresh, byName)
	order := make([]*Entry, 0, s.live)
	i := 0
	merge := func(en *Entry) {
		if s.dropped && s.deleted(en) {
			return
		}
		for ; i < len(fresh) && fresh[i].Name < en.Name; i++ {
			order = append(order, fresh[i])
		}
		order = append(order, en)
	}
	if s.restored != nil {
		for j := range s.restored {
			merge(&s.restored[j])
		}
	} else {
		for _, en := range s.order {
			merge(en)
		}
	}
	order = append(order, fresh[i:]...)
	clear(s.fresh)
	s.order, s.restored, s.fresh, s.dropped = order, nil, s.fresh[:0], false
	return order
}

// deleted reports whether en is no longer the store's entry of its name.
func (s *Store) deleted(en *Entry) bool { return s.get(en.Name) != en }

// forgetOrder drops the kept export order; the next export sorts.
func (s *Store) forgetOrder() {
	s.kept, s.order, s.restored, s.fresh, s.dropped = false, nil, nil, nil, false
}

func byName(a, b *Entry) int { return strings.Compare(a.Name, b.Name) }

// scanState walks a store's state for lengths only, checking every count
// against the bytes left, every history against its bound and every scope
// against a slot, and sizes its restore into s: the rings the histories
// need (see ringless), the floats those rings hold, and the count and bytes
// of the names s does not hold yet.
func scanState(d *codec.Decoder, s *Store) (rings, floats, names, nameBytes int, err error) {
	d.Skip(8) // alpha
	histLen := d.Int()
	d.Varint()
	d.Varint()
	n := d.Count(minEntrySize)
	for i := 0; i < n && d.Err() == nil; i++ {
		name := d.StrBytes()
		if _, ok := s.known(name); !ok {
			names++
			nameBytes += len(name)
		}
		if sc := Scope(d.Int()); !sc.Storable() {
			return 0, 0, 0, 0, fmt.Errorf("%w: entry %q has scope %d", ErrScope, name, sc)
		}
		d.Skip(16) // value, variance
		updates := d.Int()
		d.Skip(8) // last update
		nt, nv := d.SkipF64s(), d.SkipF64s()
		switch {
		case nt != nv:
			return 0, 0, 0, 0, fmt.Errorf("knowledge: entry %q history length mismatch (%d times, %d values)", name, nt, nv)
		case histLen > 0 && nt > histLen:
			return 0, 0, 0, 0, fmt.Errorf("knowledge: entry %q history %d exceeds ring capacity %d", name, nt, histLen)
		case histLen > 0 && !ringless(updates, nt):
			rings++
			floats += 2 * ringLen(histLen, nt)
		}
	}
	return rings, floats, names, nameBytes, d.Err()
}

// ringless reports whether a restored history of k points is the one an
// entry of n updates holds without a ring: an empty list at n <= 1, where
// the history is the entry's own — nothing at n == 0, the point
// (lastUpdate, value) at n == 1 — and is not spelled. Any other history,
// a one-point list at n == 1 included, is restored into a ring, which
// spells it again.
func ringless(n, k int) bool { return k == 0 && n <= 1 }

// RestoreState replaces the store's contents, smoothing factor and
// history length with the state AppendState wrote. Interned Keys survive,
// re-pointed at the restored entry of the same name (or at nothing), and a
// state that fails to parse or validate — entry names not in strictly
// increasing order, or a scope a slot cannot keep (ErrScope), included —
// leaves the store as it was. The restored entry block, in that order, is
// the kept order the next export merges into (see exportOrder).
//
// A length-only pre-scan sizes the restore, so the entries come out of one
// block, their rings out of another and every history out of one float
// slab: a few allocations per store, not several per entry. Names the
// store already holds are reused; the rest share one string block. An
// entry whose history is its own gets no ring (see ringless); every other
// history is read straight into a ring of the backing length NewRing
// plus its Pushes would have grown to, so later growth, Trend and
// AppendState are exactly the writer's.
func (s *Store) RestoreState(d *codec.Decoder) error {
	scan := *d
	nrings, floats, newNames, nameBytes, err := scanState(&scan, s)
	if err != nil {
		return err
	}
	alpha, histLen := d.F64(), d.Int()
	reads, writes := d.Varint(), d.Varint()
	n := d.Count(minEntrySize)
	k := s.kin
	if math.Float64bits(k.alpha) != math.Float64bits(alpha) || k.histLen != histLen {
		k = &kin{alpha: alpha, histLen: histLen}
	}
	entries := make([]Entry, n)
	rings := make([]Ring, nrings)
	var slab []float64
	if floats > 0 {
		slab = make([]float64, floats)
	}
	var names strings.Builder
	names.Grow(nameBytes)
	for i := range entries {
		raw := d.StrBytes()
		name, ok := s.known(raw)
		if !ok {
			off := names.Len()
			names.Write(raw)
			name = names.String()[off:]
		}
		if i > 0 && name <= entries[i-1].Name {
			return fmt.Errorf("knowledge: entry %q out of order after %q in store state", name, entries[i-1].Name)
		}
		en := &entries[i]
		*en = Entry{
			Name:       name,
			Scope:      Scope(d.Int()),
			kin:        k,
			value:      d.F64(),
			variance:   d.F64(),
			n:          d.Int(),
			lastUpdate: d.F64(),
		}
		h := *d // the histories again, for a ring to read
		pts := d.SkipF64s()
		d.SkipF64s()
		if histLen > 0 && !ringless(en.n, pts) {
			size := 2 * ringLen(histLen, pts)
			h.Count(8)
			en.hist = &rings[0]
			en.hist.restore(&h, slab[:size:size], pts, histLen)
			rings, slab = rings[1:], slab[size:]
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.kin = k
	s.bindRestored(entries, newNames)
	s.lastGetName, s.lastGet = "", nil
	s.kept, s.order, s.restored, s.fresh, s.dropped = true, nil, entries, nil, false
	s.reads, s.writes = reads, writes
	return nil
}

// bindRestored makes the restored entries the store's models: each takes
// the slot of its name, adding one (newNames in all) where the symbol
// table has none, and every other slot is emptied, keeping the entry it
// held for its name. The index and the slots are sized for the new names
// up front, so a restore into a fresh store allocates each once.
func (s *Store) bindRestored(entries []Entry, newNames int) {
	for i := range s.slots {
		s.slots[i].live = false
	}
	n := len(s.slots) + newNames
	if n > cap(s.slots) {
		s.slots = append(make([]slot, 0, n), s.slots...)
	}
	if 4*n > 3*len(s.index) {
		s.reindex(n)
	}
	for i := range entries {
		e := &entries[i]
		h := maphash.String(hashSeed, e.Name)
		if k := probe(s, e.Name, h); k != 0 {
			s.slots[k-1].e, s.slots[k-1].live = e, true
		} else {
			s.addSlot(e, h, e.Scope, false, true)
		}
	}
	s.live = len(entries)
}

// known returns the store's own copy of name when its symbol table holds
// one already.
func (s *Store) known(name []byte) (string, bool) {
	if k := probe(s, name, maphash.Bytes(hashSeed, name)); k != 0 {
		return s.slots[k-1].e.Name, true
	}
	return "", false
}

// appendWindow writes buf's stored window (r.times() or r.values())
// oldest-first as a float list, straight from the ring's one or two
// contiguous parts.
func (r *Ring) appendWindow(e *codec.Encoder, buf []float64) {
	if start := int(r.head - r.size); start >= 0 {
		e.F64s(buf[start:r.head])
	} else {
		e.F64s(buf[start+len(buf):], buf[:r.head])
	}
}

// restore sets the ring up over b, whose length is 2·ringLen(max, k), and
// reads its k times and k values (oldest-first, the values' count already
// checked by the pre-scan) from d: the ring NewRing(max) becomes after
// Pushing them one by one, backing length and head included.
func (r *Ring) restore(d *codec.Decoder, b []float64, k, max int) {
	n := len(b) / 2
	*r = Ring{b: b, head: int32(k), size: int32(k), max: max}
	d.F64sInto(b[:k])
	d.Count(8)
	d.F64sInto(b[n : n+k])
	if k == n {
		r.head = 0
	}
}
