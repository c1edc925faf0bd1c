package knowledge

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strings"
)

// Scope distinguishes private self-knowledge (internal phenomena: own load,
// own error rates) from public self-knowledge (externally visible phenomena:
// the agent's role, impact and appearance in the world). This is the paper's
// first framework concept (§IV).
type Scope int

// Scope values.
const (
	Private Scope = iota
	Public
)

// String returns "private" or "public".
func (s Scope) String() string {
	if s == Public {
		return "public"
	}
	return "private"
}

// Entry is one model in the store: a scalar estimate with uncertainty,
// bounded history, and bookkeeping for explanation. Like its store, an
// entry has one owner at a time (see Store); Name and Scope are immutable
// after creation.
//
// An entry costs only what it holds. Its history ring exists only from its
// second update: until then the history is what the entry's own fields
// spell, empty at n == 0 and the one point (lastUpdate, value) at n == 1 —
// the point Observe and Set both record first.
type Entry struct {
	Name  string
	Scope Scope

	kin        *kin // the store's parameters and ring arena; immutable
	value      float64
	variance   float64
	n          int
	lastUpdate float64 // virtual time of last update
	hist       *Ring   // nil while n <= 1 (see above)
}

// kin is what the entries of one store share: the smoothing factor and
// history bound they were created with, and the arena their rings are
// carved from. A restore under other parameters gives the store a new kin,
// so an entry's parameters never change under it.
type kin struct {
	alpha   float64 // EWMA factor for value/variance tracking
	histLen int     // history bound; 0 keeps no history

	// Ring arena: the second update of a model carves its ring and seed
	// storage from these chunks instead of allocating.
	rings []Ring
	slab  []float64
}

// Arena chunk sizes: entries per entry chunk (8 × 72 B is a 576 B size
// class), rings per ring chunk (16 × 40 B, a 640 B one), and ring seeds per
// float slab.
const (
	entryChunk = 8
	ringChunk  = 16
	slabChunk  = 64
)

// newRing returns an empty ring at the kin's bound with seed-sized
// storage carved from the arena.
func (k *kin) newRing() *Ring {
	if len(k.rings) == 0 {
		k.rings = make([]Ring, ringChunk)
	}
	r := &k.rings[0]
	k.rings = k.rings[1:]
	size := 2 * min(k.histLen, ringSeed)
	if len(k.slab) < size {
		k.slab = make([]float64, 2*ringSeed*slabChunk)
	}
	*r = Ring{b: k.slab[:size:size], max: k.histLen}
	k.slab = k.slab[size:]
	return r
}

// Value returns the current estimate.
func (e *Entry) Value() float64 { return e.value }

// Variance returns the EWMA-tracked variance of observations around the
// estimate, a cheap volatility signal used by attention and meta levels.
func (e *Entry) Variance() float64 { return e.variance }

// Updates returns how many observations the entry has absorbed.
func (e *Entry) Updates() int { return e.n }

// LastUpdate returns the virtual time of the last observation.
func (e *Entry) LastUpdate() float64 { return e.lastUpdate }

// Confidence maps freshness and sample count to [0, 1]: zero observations
// give 0; confidence grows with n and is discounted by staleness.
func (e *Entry) Confidence(now float64) float64 {
	if e.n == 0 {
		return 0
	}
	sample := 1 - 1/math.Sqrt(float64(e.n)+1)
	age := now - e.lastUpdate
	fresh := math.Exp(-age / 100)
	return sample * fresh
}

// History returns a point-in-time copy of the entry's bounded history, or
// nil if the store was created without history. The copy is private to the
// caller, so later Observe/Set calls do not change it; hot paths that only
// need the slope should call Trend, which allocates nothing.
func (e *Entry) History() *Ring {
	switch {
	case e.hist != nil:
		c := *e.hist
		c.b = append([]float64(nil), c.b...)
		return &c
	case e.kin.histLen <= 0:
		return nil
	}
	r := NewRing(e.kin.histLen)
	if e.n != 0 {
		r.Push(e.lastUpdate, e.value)
	}
	return r
}

// Trend returns the least-squares slope over the entry's history window
// without copying it; ok is false when the store keeps no history.
func (e *Entry) Trend() (slope float64, ok bool) {
	if e.hist == nil {
		// At most one point: no slope.
		return 0, e.kin.histLen > 0
	}
	return e.hist.Trend(), true
}

// Observe folds a new observation in at virtual time now.
func (e *Entry) Observe(x, now float64) {
	e.push(now, x)
	if e.n == 0 {
		e.value = x
	} else {
		d := x - e.value
		e.value += e.kin.alpha * d
		e.variance += e.kin.alpha * (d*d - e.variance)
	}
	e.n++
	e.lastUpdate = now
}

// push records the point (now, x) in the history, before the update
// changes n, value and lastUpdate. The first point needs no ring; the
// second builds one holding both.
func (e *Entry) push(now, x float64) {
	switch {
	case e.hist != nil:
		e.hist.Push(now, x)
	case e.n != 0 && e.kin.histLen > 0:
		e.hist = e.kin.newRing()
		e.hist.Push(e.lastUpdate, e.value)
		e.hist.Push(now, x)
	}
}

// valueOr returns the entry's estimate, or def when it has never been
// updated: the shared core of Store.Value and Store.ValueKey.
func (e *Entry) valueOr(def float64) float64 {
	if e.n == 0 {
		return def
	}
	return e.value
}

// Set overwrites the estimate without EWMA smoothing (for derived
// quantities computed by reasoning rather than sensed).
func (e *Entry) Set(x, now float64) {
	e.push(now, x)
	e.value = x
	e.n++
	e.lastUpdate = now
}

// Key is a dense handle for a model name interned in one Store's symbol
// table: the per-tick loop resolves each name to a Key once (Intern or
// LookupKey) and thereafter reads and writes the model by slice index —
// no string concatenation, no hashing. The zero Key is "not interned";
// valid keys are positive and assigned in interning order. Keys are
// permanent for the life of the store: deleting the model (Store.Delete)
// clears the entry behind the key, and a later ObserveKey/EnsureKey
// recreates it fresh, exactly as the string path would. Keys are
// store-local — never use a Key against a different Store.
type Key int32

// slot is what a Key indexes: the entry of a name, which is the live model
// when live is set. Every name the store has held a model under or
// interned has a slot, so the symbol table is also the store's registry,
// and the slot's name is its entry's Name — stored once. A slot without a
// live model keeps the entry it last held (the deleted model, left as it
// was for whoever still holds it) or, when it never held one, a name-only
// entry (kin == nil) that its first write turns into the model. interned
// marks a slot whose Key has been handed out (Intern, LookupKey): only then
// is scope authoritative, as the scope a key-based write recreates the
// model with. A slot the string path or a restore made takes its scope
// when it is first interned. tag is the top of the name's hash, so a probe
// passing another name's slot rarely reads that name. The scope is kept in
// 32 bits so a slot is 16 B (see Scope.Storable).
type slot struct {
	e        *Entry
	scope    int32
	tag      uint16
	interned bool
	live     bool
}

// model returns the slot's live model, or nil.
func (sl *slot) model() *Entry {
	if sl.live {
		return sl.e
	}
	return nil
}

// ErrScope is the error a decoder wraps when a scope does not fit the 32
// bits a symbol-table slot keeps of it.
var ErrScope = errors.New("knowledge: scope out of range")

// Storable reports whether s survives the 32 bits a store's symbol table
// keeps of a scope. A restore rejects an entry whose scope does not
// (ErrScope), and so does a stimulus decoder, so no store is handed one.
func (s Scope) Storable() bool { return Scope(int32(s)) == s }

// hashSeed seeds every store's name hash. It is drawn per process, so
// names that arrive from outside cannot be chosen to collide; nothing the
// store returns or writes depends on it (see Store.index).
var hashSeed = maphash.MakeSeed()

// Store is a registry of model entries keyed by name: one system's private
// self-knowledge. A store has one owner at a time. Nothing in it is
// synchronized, so the store, its entries and the Keys into it are used by
// one goroutine at a time, and a hand-over between goroutines (a population
// barrier, a pool job's start and end) must order the accesses; concurrent
// use is a data race. A population panics at construction when two of its
// agents would share a store.
type Store struct {
	// The symbol table: slots[k-1] is Key k's slot, and index is an
	// open-addressed hash table of the Keys (0 marks an empty cell), a
	// power of two in length and at most three quarters full, probed
	// quadratically from the name's hash and compared by slot name. It is
	// only ever probed or rebuilt, never walked, so no order depends on
	// the hash seed.
	slots []slot
	index []int32
	live  int  // slots holding a live model
	kin   *kin // parameters (and ring arena) of new entries: &own unless a restore changed them

	// own is the kin the store starts with, kept inside the store so an
	// entry's parameters share a cache line with the fields every keyed
	// access reads, and cost no allocation of their own.
	own kin

	// Last-Get cache: hot loops read the same model by the same constant
	// string every tick, so the repeat case is a pointer compare instead of
	// a hash.
	lastGetName string
	lastGet     *Entry

	// Entry arena: entries (name-only ones included) are carved from
	// per-store chunks, so creating a model — the dominant allocation of a
	// populated run — costs a fraction of an allocation. Chunks are never
	// reclaimed while the store lives; entries are permanent by design
	// (Delete unlinks, the Key machinery assumes slots persist).
	boxes []Entry

	// Instrumentation: model consultations (for E9 overhead) and
	// observations.
	reads, writes int64

	// Kept export order (see exportOrder). Once the store has been
	// exported or restored, kept is set and its entries' strictly
	// increasing name order is in order — or, straight after a restore, in
	// the restored entry block itself; fresh holds the entries created
	// since, unsorted, and dropped records a Delete since. A store never
	// exported or restored keeps none of it. Only model creation and
	// Delete touch these fields between exports, so they sit after the
	// ones every read and write uses.
	kept     bool
	order    []*Entry
	restored []Entry
	fresh    []*Entry
	dropped  bool
}

// NewStore returns a store whose entries smooth with factor alpha and keep
// histLen historical points (histLen = 0 disables history).
func NewStore(alpha float64, histLen int) *Store {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	s := &Store{own: kin{alpha: alpha, histLen: histLen}}
	s.kin = &s.own
	return s
}

// box carves an entry from the store's chunk.
func (s *Store) box() *Entry {
	if len(s.boxes) == 0 {
		s.boxes = make([]Entry, entryChunk)
	}
	e := &s.boxes[0]
	s.boxes = s.boxes[1:]
	return e
}

// newEntry makes e a fresh model with the store's parameters. Model
// creation — every first sighting of a peer or stimulus — is the dominant
// allocation site of a populated run, so entries are carved from per-store
// chunks. A store that keeps its export order lists the new entry as fresh
// (see exportOrder).
func (s *Store) newEntry(e *Entry, name string, scope Scope) *Entry {
	*e = Entry{Name: name, Scope: scope, kin: s.kin}
	if s.kept {
		s.keepFresh(e)
	}
	return e
}

// fill creates the model behind sl with the given scope. A name-only entry
// becomes the model; a deleted model stays as it was, and a fresh entry of
// its name takes its place.
func (s *Store) fill(sl *slot, scope Scope) *Entry {
	e := sl.e
	if e.kin != nil {
		e = s.box()
	}
	sl.e, sl.live = s.newEntry(e, sl.e.Name, scope), true
	s.live++
	return sl.e
}

// addSlot appends a slot for e, a name the symbol table does not hold yet
// whose hash is h, and returns its Key. The slot table grows by about a
// quarter at a time, not append's doubling: it is the largest table a
// store keeps, one slot per model (EXPERIMENTS.md compares doubling up to
// 256 slots).
func (s *Store) addSlot(e *Entry, h uint64, scope Scope, interned, live bool) Key {
	if n := len(s.slots); n == cap(s.slots) {
		s.slots = append(make([]slot, 0, n+n/4+8), s.slots...)
	}
	s.slots = append(s.slots, slot{e: e, scope: int32(scope), tag: uint16(h >> 48), interned: interned, live: live})
	k := Key(len(s.slots))
	if 4*len(s.slots) > 3*len(s.index) {
		s.reindex(len(s.slots))
	} else {
		s.place(k, h)
	}
	return k
}

// reindex rebuilds the index at the least power-of-two length that holds n
// slots at most three quarters full, placing every slot there is.
func (s *Store) reindex(n int) {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	s.index = make([]int32, size)
	for i := range s.slots {
		s.place(Key(i+1), maphash.String(hashSeed, s.slots[i].e.Name))
	}
}

// place puts k, whose name hashes to h, in the first empty cell of its
// probe sequence.
func (s *Store) place(k Key, h uint64) {
	mask := uint64(len(s.index) - 1)
	for i, step := h&mask, uint64(1); ; i, step = (i+step)&mask, step+1 {
		if s.index[i] == 0 {
			s.index[i] = int32(k)
			return
		}
	}
}

// probe returns the Key of name, whose hash is h, or 0 when the symbol
// table does not hold it. The triangular probe sequence visits every cell
// of a power-of-two table, and the index always has an empty one.
func probe[T string | []byte](s *Store, name T, h uint64) Key {
	if len(s.index) == 0 {
		return 0
	}
	mask, tag := uint64(len(s.index)-1), uint16(h>>48)
	for i, step := h&mask, uint64(1); ; i, step = (i+step)&mask, step+1 {
		k := s.index[i]
		if k == 0 {
			return 0
		}
		if sl := &s.slots[k-1]; sl.tag == tag && sl.e.Name == string(name) {
			return Key(k)
		}
	}
}

// key returns the Key of name, or 0.
func (s *Store) key(name string) Key {
	return probe(s, name, maphash.String(hashSeed, name))
}

// get returns the live model named name, or nil.
func (s *Store) get(name string) *Entry {
	if k := s.key(name); k != 0 {
		return s.slots[k-1].model()
	}
	return nil
}

// keepFresh lists a new entry for the next export to merge into the kept
// order. Once more entries have been created since the last export than
// it kept, it drops the kept order instead: sorting them would cost as
// much as sorting all, and delete-and-recreate churn cannot grow the list
// without bound.
func (s *Store) keepFresh(e *Entry) {
	if s.fresh = append(s.fresh, e); len(s.fresh) > len(s.order)+len(s.restored) {
		s.forgetOrder()
	}
}

// Ensure returns the entry named name, creating it with the given scope on
// first use.
func (s *Store) Ensure(name string, scope Scope) *Entry {
	h := maphash.String(hashSeed, name)
	k := probe(s, name, h)
	if k == 0 {
		e := s.box()
		e.Name = name
		k = s.addSlot(e, h, scope, false, false)
	}
	if sl := &s.slots[k-1]; !sl.live {
		// The string path creates with the caller's scope; an interned
		// slot keeps its own for key-based recreation.
		return s.fill(sl, scope)
	}
	return s.slots[k-1].e
}

// Intern returns the permanent Key for name, adding it to the symbol table
// on first use. Interning alone does not create the model: the entry comes
// into existence on the first ObserveKey/SetKey/EnsureKey (or through the
// string path), with the scope recorded here. Call once per name outside
// the hot loop, then use the Key-based accessors per tick.
func (s *Store) Intern(name string, scope Scope) Key {
	return intern(s, name, maphash.String(hashSeed, name), scope)
}

// InternBytes is Intern for a name spelled in a caller's reused buffer: a
// name already interned is found without allocating, so only a new model
// name costs a string.
func (s *Store) InternBytes(name []byte, scope Scope) Key {
	return intern(s, name, maphash.Bytes(hashSeed, name), scope)
}

// intern is Intern and InternBytes for a name whose hash is h. A new name
// gets a name-only entry, which its first write makes the model.
func intern[T string | []byte](s *Store, name T, h uint64, scope Scope) Key {
	k := probe(s, name, h)
	if k == 0 {
		e := s.box()
		e.Name = string(name)
		return s.addSlot(e, h, scope, true, false)
	}
	if sl := &s.slots[k-1]; !sl.interned {
		if sl.live {
			// The model already exists: its actual scope wins over the
			// caller's argument, so a later delete-and-recreate through
			// the key reproduces the model exactly (an agent restored from
			// a checkpoint interns against restored entries, whose scope
			// is authoritative).
			scope = sl.e.Scope
		}
		sl.scope, sl.interned = int32(scope), true
	}
	return k
}

// LookupKey resolves name to its Key and current entry without ever
// creating a model: it returns (0, nil) when no such model exists. When the
// model exists but was created through the string path, it is interned here
// so the caller can switch to the Key-based accessors. It counts as one
// model consultation, exactly like Get.
func (s *Store) LookupKey(name string) (Key, *Entry) {
	s.reads++
	k := s.key(name)
	if k == 0 {
		return 0, nil
	}
	sl := &s.slots[k-1]
	if !sl.interned {
		if !sl.live {
			return 0, nil
		}
		sl.scope, sl.interned = int32(sl.e.Scope), true
	}
	return k, sl.model()
}

// entryForKey returns the entry behind k, creating it (with the interned
// name and scope) when create is set and the model is currently absent.
func (s *Store) entryForKey(k Key, create bool) *Entry {
	if k <= 0 {
		panic(fmt.Sprintf("knowledge: invalid key %d", k))
	}
	sl := &s.slots[k-1]
	if !sl.live && create {
		return s.fill(sl, Scope(sl.scope))
	}
	return sl.model()
}

// ObserveKey records an observation for the interned model k (creating the
// entry if needed): the hash-free equivalent of Observe.
func (s *Store) ObserveKey(k Key, x, now float64) {
	s.writes++
	s.entryForKey(k, true).Observe(x, now)
}

// SetKey overwrites the interned model k's estimate without smoothing: the
// hash-free equivalent of Ensure(...).Set(...).
func (s *Store) SetKey(k Key, x, now float64) {
	s.entryForKey(k, true).Set(x, now)
}

// EnsureKey returns the entry behind k, creating it if absent (like Ensure,
// it does not count as a consultation).
func (s *Store) EnsureKey(k Key) *Entry {
	return s.entryForKey(k, true)
}

// GetKey returns the entry behind k, or nil when the model is currently
// absent (never interned into existence or deleted). Like Get, it counts
// as a model consultation.
func (s *Store) GetKey(k Key) *Entry {
	s.reads++
	return s.entryForKey(k, false)
}

// ValueKey returns the current estimate of the interned model k, or def
// when the model is absent or has never been updated.
func (s *Store) ValueKey(k Key, def float64) float64 {
	e := s.GetKey(k)
	if e == nil {
		return def
	}
	return e.valueOr(def)
}

// Observe records an observation for name (creating the entry if needed).
func (s *Store) Observe(name string, scope Scope, x, now float64) {
	s.writes++
	s.Ensure(name, scope).Observe(x, now)
}

// Get returns the entry for name, or nil if absent. It counts as a model
// consultation.
func (s *Store) Get(name string) *Entry {
	s.reads++
	if e := s.lastGet; e != nil && name == s.lastGetName {
		return e
	}
	e := s.get(name)
	if e != nil {
		s.lastGetName, s.lastGet = name, e
	}
	return e
}

// Value returns the current estimate for name, or def if the model is
// absent or has never been updated.
func (s *Store) Value(name string, def float64) float64 {
	e := s.Get(name)
	if e == nil {
		return def
	}
	return e.valueOr(def)
}

// ReadCount reports how many model consultations the store has served.
func (s *Store) ReadCount() int { return int(s.reads) }

// WriteCount reports how many observations the store has absorbed.
func (s *Store) WriteCount() int { return int(s.writes) }

// Delete removes the named entry; a later Ensure/Observe (or key-based
// write through an interned Key) recreates it fresh (first observation
// re-seeds the value). Deleting a missing name is a no-op. Meta-level
// processes use this to discard models that drift detection has
// invalidated. The name's Key, if interned, stays valid and simply points
// at nothing until the model is recreated.
func (s *Store) Delete(name string) {
	if k := s.key(name); k != 0 && s.slots[k-1].live {
		s.slots[k-1].live = false
		s.live--
	}
	s.lastGetName, s.lastGet = "", nil
	s.dropped = true
}

// liveEntries appends the store's entries, in slot order, to dst.
func (s *Store) liveEntries(dst []*Entry) []*Entry {
	for i := range s.slots {
		if e := s.slots[i].model(); e != nil {
			dst = append(dst, e)
		}
	}
	return dst
}

// Names returns all entry names, sorted, optionally filtered by scope.
func (s *Store) Names(scope Scope, filter bool) []string {
	var names []string
	for i := range s.slots {
		if e := s.slots[i].model(); e != nil && (!filter || e.Scope == scope) {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Len reports the number of entries.
func (s *Store) Len() int { return s.live }

// Inventory renders a human-readable snapshot, used by self-explanation.
func (s *Store) Inventory(now float64) string {
	entries := s.liveEntries(make([]*Entry, 0, s.live))
	slices.SortFunc(entries, byName)
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%-28s %8.3f  conf=%.2f  scope=%s  n=%d\n",
			e.Name, e.value, e.Confidence(now), e.Scope, e.n)
	}
	return b.String()
}

// Ring is a bounded time-stamped history buffer: the substrate of
// time-awareness. The zero value is unusable; create with NewRing.
//
// Storage grows from ringSeed points toward the bound, ringGrowth-fold at
// a time, rather than being allocated up front: most models never fill
// their window (on a gossip population most are peer models seen once or
// twice), and the bound only matters once enough observations arrive to
// reach it. A store's model builds its ring only at its second update (see
// Entry). One backing slice holds the times in its first half and the
// values in its second. Capacity is an implementation detail — snapshots
// serialize contents oldest-first (see Store.AppendState), never the
// backing size — so two rings with equal contents are indistinguishable.
type Ring struct {
	b    []float64 // times in b[:len(b)/2], values in b[len(b)/2:]
	head int32     // next write position in either half
	size int32
	max  int // the bound: len(b)/2 grows toward it, never past it
}

// A new ring holds ringSeed points (when the bound allows) and grows
// ringGrowth-fold, capped at the bound: 2 → 16 → 64 for the default bound
// of 64. A small seed keeps the many once-seen models small; a large step
// keeps the models that do fill their window from paying a regrowth every
// few observations.
const (
	ringSeed   = 2
	ringGrowth = 8
)

// NewRing returns a ring holding up to capacity points.
func NewRing(capacity int) *Ring {
	r := new(Ring)
	r.init(capacity)
	return r
}

// init sets up the ring in place with seed-sized backing storage.
func (r *Ring) init(capacity int) {
	if capacity <= 0 {
		panic("knowledge: ring capacity must be > 0")
	}
	*r = Ring{b: make([]float64, 2*min(capacity, ringSeed)), max: capacity}
}

// ringLen is the backing length of a ring bounded at max after k <= max
// Pushes into NewRing(max): the seed, grown ringGrowth-fold (capped at the
// bound) until it holds k points.
func ringLen(max, k int) int {
	n := min(max, ringSeed)
	for n < k {
		n = min(ringGrowth*n, max)
	}
	return n
}

// times and values are the ring's two halves.
func (r *Ring) times() []float64 {
	n := len(r.b) / 2
	return r.b[:n:n]
}

func (r *Ring) values() []float64 { return r.b[len(r.b)/2:] }

// Push appends a point, evicting the oldest when full at the bound. The wrap
// is a compare, not a modulo: Push runs once per observation per model and
// the integer division dominated tick profiles. A ring full below its bound
// grows first (amortized O(1); steady state never allocates).
//
//sacs:hotpath
func (r *Ring) Push(t, v float64) {
	n := int32(len(r.b) / 2)
	if r.size == n && int(n) < r.max {
		r.grow()
		n = int32(len(r.b) / 2)
	}
	r.b[r.head] = t
	r.b[n+r.head] = v
	r.head++
	if r.head == n {
		r.head = 0
	}
	if r.size < n {
		r.size++
	}
}

// grow enlarges the backing storage ringGrowth-fold (capped at the bound),
// linearizing the contents oldest-first so index arithmetic stays uniform.
// Only called when the ring is full, so head is the oldest point.
func (r *Ring) grow() {
	old := len(r.b) / 2
	n := min(ringGrowth*old, r.max)
	b := make([]float64, 2*n)
	h := int(r.head)
	k := copy(b, r.b[h:old])
	copy(b[k:], r.b[:h])
	k = copy(b[n:], r.b[old+h:])
	copy(b[n+k:], r.b[old:old+h])
	r.b = b
	r.head = r.size
}

// Len reports how many points are stored.
func (r *Ring) Len() int { return int(r.size) }

// Values returns stored values oldest-first.
func (r *Ring) Values() []float64 { return r.linear(r.values()) }

// Times returns stored timestamps oldest-first.
func (r *Ring) Times() []float64 { return r.linear(r.times()) }

// segments returns the stored window of buf (r.times() or r.values())
// oldest-first as two contiguous runs: from the oldest point on, then the
// wrapped head part (empty when the window does not wrap). Walking them in
// turn visits the points in window order with no wrap test or modulo per
// point.
func (r *Ring) segments(buf []float64) (older, newer []float64) {
	start := int(r.head - r.size)
	if start < 0 {
		return buf[start+len(buf):], buf[:r.head]
	}
	return buf[start:r.head], nil
}

// linear copies the stored window of buf out oldest-first as two block
// copies.
func (r *Ring) linear(buf []float64) []float64 {
	out := make([]float64, r.size)
	older, newer := r.segments(buf)
	copy(out[copy(out, older):], newer)
	return out
}

// Mean returns the mean of stored values (0 when empty).
func (r *Ring) Mean() float64 {
	if r.size == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.Values() {
		s += v
	}
	return s / float64(r.size)
}

// Trend returns a least-squares slope of value against time over the stored
// window (0 with fewer than 2 points): a cheap "likely future" signal. It
// iterates the ring in place — no allocation — because time-awareness calls
// it once per stimulus per tick. Both sums run oldest-first over the
// window's two segments, so the result is bit-for-bit what a walk wrapping
// its index per point computes.
//
//sacs:hotpath
func (r *Ring) Trend() float64 {
	if r.size < 2 {
		return 0
	}
	t1, t2 := r.segments(r.times())
	v1, v2 := r.segments(r.values())
	v1, v2 = v1[:len(t1)], v2[:len(t2)]
	var mt, mv float64
	for i, t := range t1 {
		mt += t
		mv += v1[i]
	}
	for i, t := range t2 {
		mt += t
		mv += v2[i]
	}
	n := float64(r.size)
	mt /= n
	mv /= n
	var num, den float64
	for i, t := range t1 {
		num += (t - mt) * (v1[i] - mv)
		den += (t - mt) * (t - mt)
	}
	for i, t := range t2 {
		num += (t - mt) * (v2[i] - mv)
		den += (t - mt) * (t - mt)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
