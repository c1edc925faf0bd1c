package knowledge

import (
	"fmt"
	"slices"
	"strings"

	"sacs/internal/codec"
)

// minEntrySize is the fewest bytes one entry can be spelled in: an empty
// name, a scope, three floats, a count and two empty histories.
const minEntrySize = 29

// AppendState writes the store's complete contents to e: its parameters
// and counters, then the entries sorted by name, so equal stores write
// equal bytes, each with its history oldest-first (ring rotation and
// backing size are not written). It takes the registry lock and every
// entry lock, so it must not run concurrently with a caller that holds
// entry locks; population checkpointing calls it only at tick barriers.
func (s *Store) AppendState(e *codec.Encoder) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e.F64(s.alpha)
	e.Int(s.histLen)
	e.Varint(s.reads.Load() + s.readsU)
	e.Varint(s.writes.Load() + s.writesU)
	sorted := make([]*Entry, 0, len(s.entries))
	for _, en := range s.entries {
		sorted = append(sorted, en)
	}
	slices.SortFunc(sorted, func(a, b *Entry) int { return strings.Compare(a.Name, b.Name) })
	e.Uvarint(uint64(len(sorted)))
	for _, en := range sorted {
		en.mu.RLock()
		e.Str(en.Name)
		e.Int(int(en.Scope))
		e.F64(en.value)
		e.F64(en.variance)
		e.Int(en.n)
		e.F64(en.lastUpdate)
		if en.hist != nil {
			en.hist.appendWindow(e, en.hist.t)
			en.hist.appendWindow(e, en.hist.v)
		} else {
			e.Uvarint(0)
			e.Uvarint(0)
		}
		en.mu.RUnlock()
	}
}

// SkipState steps d over one store's state without allocating, checking
// every count against the bytes left and every history against its bound.
func SkipState(d *codec.Decoder) {
	if _, _, err := scanState(d, nil); err != nil {
		d.Fail("%v", err)
	}
}

// scanState is SkipState's walk, which also sizes a restore: the floats
// every history's ring needs and the bytes of the names s (when not nil)
// does not hold yet.
func scanState(d *codec.Decoder, s *Store) (floats, names int, err error) {
	d.Skip(8) // alpha
	histLen := d.Int()
	d.Varint()
	d.Varint()
	n := d.Count(minEntrySize)
	for i := 0; i < n && d.Err() == nil; i++ {
		name := d.StrBytes()
		if _, ok := s.known(name); !ok {
			names += len(name)
		}
		d.Int()
		d.Skip(16) // value, variance
		d.Int()
		d.Skip(8) // last update
		nt, nv := d.SkipF64s(), d.SkipF64s()
		switch {
		case nt != nv:
			return 0, 0, fmt.Errorf("knowledge: entry %q history length mismatch (%d times, %d values)", name, nt, nv)
		case histLen > 0 && nt > histLen:
			return 0, 0, fmt.Errorf("knowledge: entry %q history %d exceeds ring capacity %d", name, nt, histLen)
		case histLen > 0:
			floats += 2 * ringLen(histLen, nt)
		}
	}
	return floats, names, d.Err()
}

// RestoreState replaces the store's contents, smoothing factor and
// history length with the state AppendState wrote. Interned Keys survive,
// re-pointed at the restored entry of the same name (or at nothing), and a
// state that fails to parse or validate leaves the store as it was.
//
// A length-only pre-scan sizes the restore, so the entries and their rings
// come out of one entryBox block and every history out of one float slab:
// a few allocations per store, not several per entry. Names the store
// already holds are reused; the rest share one string block. Each history
// is read straight into a ring of the backing length NewRing plus its
// Pushes would have grown to, so later growth, Trend and AppendState are
// exactly the writer's.
func (s *Store) RestoreState(d *codec.Decoder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	scan := *d
	floats, nameBytes, err := scanState(&scan, s)
	if err != nil {
		return err
	}
	alpha, histLen := d.F64(), d.Int()
	reads, writes := d.Varint(), d.Varint()
	n := d.Count(minEntrySize)
	boxes := make([]entryBox, n)
	var slab []float64
	if floats > 0 {
		slab = make([]float64, floats)
	}
	var names strings.Builder
	names.Grow(nameBytes)
	entries := make(map[string]*Entry, n)
	for i := range boxes {
		raw := d.StrBytes()
		name, ok := s.known(raw)
		if !ok {
			off := names.Len()
			names.Write(raw)
			name = names.String()[off:]
		}
		if _, dup := entries[name]; dup {
			return fmt.Errorf("knowledge: duplicate entry %q in store state", name)
		}
		box := &boxes[i]
		box.e = Entry{
			Name:       name,
			Scope:      Scope(d.Int()),
			alpha:      alpha,
			noLock:     s.unshared,
			value:      d.F64(),
			variance:   d.F64(),
			n:          d.Int(),
			lastUpdate: d.F64(),
		}
		if histLen > 0 {
			k := d.Count(8)
			size := 2 * ringLen(histLen, k)
			box.r.restore(d, slab[:size:size], k, histLen)
			slab = slab[size:]
			box.e.hist = &box.r
		} else {
			d.SkipF64s()
			d.SkipF64s()
		}
		entries[name] = &box.e
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.alpha = alpha
	s.histLen = histLen
	s.entries = entries
	for i := range s.slots {
		s.slots[i].e = entries[s.slots[i].name]
	}
	s.lastGetName, s.lastGet = "", nil
	s.reads.Store(reads)
	s.writes.Store(writes)
	s.readsU, s.writesU = 0, 0
	return nil
}

// known returns the store's own copy of name when it holds one already —
// a live entry's or an interned key's; a nil store holds none. Callers
// hold the registry lock.
func (s *Store) known(name []byte) (string, bool) {
	if s == nil {
		return "", false
	}
	if e := s.entries[string(name)]; e != nil {
		return e.Name, true
	}
	if k, ok := s.keys[string(name)]; ok {
		return s.slots[k-1].name, true
	}
	return "", false
}

// appendWindow writes buf's stored window (r.t or r.v) oldest-first as a
// float list, straight from the ring's one or two contiguous halves.
func (r *Ring) appendWindow(e *codec.Encoder, buf []float64) {
	if start := r.head - r.size; start >= 0 {
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
	*r = Ring{t: b[:n:n], v: b[n:], head: k, size: k, max: max}
	d.F64sInto(r.t[:k])
	d.Count(8)
	d.F64sInto(r.v[:k])
	if r.head == n {
		r.head = 0
	}
}
