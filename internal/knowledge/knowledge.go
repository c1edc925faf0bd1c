package knowledge

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// bounded history, and bookkeeping for explanation. All methods are safe
// for concurrent use unless the owning store has been marked Unshared;
// Name and Scope are immutable after creation.
type Entry struct {
	Name  string
	Scope Scope

	mu         sync.RWMutex
	noLock     bool // single-owner store: locking elided (see Store.Unshared)
	value      float64
	variance   float64
	alpha      float64 // EWMA factor for value/variance tracking; immutable
	n          int
	lastUpdate float64 // virtual time of last update
	hist       *Ring   // guarded by mu; the pointer itself is immutable
}

// Value returns the current estimate.
func (e *Entry) Value() float64 {
	if e.noLock {
		return e.value
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.value
}

// Variance returns the EWMA-tracked variance of observations around the
// estimate, a cheap volatility signal used by attention and meta levels.
func (e *Entry) Variance() float64 {
	if e.noLock {
		return e.variance
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.variance
}

// Updates returns how many observations the entry has absorbed.
func (e *Entry) Updates() int {
	if e.noLock {
		return e.n
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.n
}

// LastUpdate returns the virtual time of the last observation.
func (e *Entry) LastUpdate() float64 {
	if e.noLock {
		return e.lastUpdate
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lastUpdate
}

// Confidence maps freshness and sample count to [0, 1]: zero observations
// give 0; confidence grows with n and is discounted by staleness.
func (e *Entry) Confidence(now float64) float64 {
	if e.noLock {
		return e.confidenceLocked(now)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.confidenceLocked(now)
}

func (e *Entry) confidenceLocked(now float64) float64 {
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
// caller, so it stays consistent under concurrent Observe/Set; hot paths
// that only need the slope should call Trend, which allocates nothing.
func (e *Entry) History() *Ring {
	if !e.noLock {
		e.mu.RLock()
		defer e.mu.RUnlock()
	}
	if e.hist == nil {
		return nil
	}
	c := Ring{
		t:    append([]float64(nil), e.hist.t...),
		v:    append([]float64(nil), e.hist.v...),
		head: e.hist.head,
		size: e.hist.size,
		max:  e.hist.max,
	}
	return &c
}

// Trend returns the least-squares slope over the entry's history window
// without copying it; ok is false when the store keeps no history.
func (e *Entry) Trend() (slope float64, ok bool) {
	if e.hist == nil {
		return 0, false
	}
	if e.noLock {
		return e.hist.Trend(), true
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.hist.Trend(), true
}

// Observe folds a new observation in at virtual time now.
func (e *Entry) Observe(x, now float64) {
	if e.noLock {
		e.observeLocked(x, now)
		return
	}
	e.mu.Lock()
	e.observeLocked(x, now)
	e.mu.Unlock()
}

func (e *Entry) observeLocked(x, now float64) {
	if e.n == 0 {
		e.value = x
	} else {
		d := x - e.value
		e.value += e.alpha * d
		e.variance += e.alpha * (d*d - e.variance)
	}
	e.n++
	e.lastUpdate = now
	if e.hist != nil {
		e.hist.Push(now, x)
	}
}

// valueOr returns the entry's estimate, or def when it has never been
// updated: the shared core of Store.Value and Store.ValueKey.
func (e *Entry) valueOr(def float64) float64 {
	if !e.noLock {
		e.mu.RLock()
		defer e.mu.RUnlock()
	}
	if e.n == 0 {
		return def
	}
	return e.value
}

// Set overwrites the estimate without EWMA smoothing (for derived
// quantities computed by reasoning rather than sensed).
func (e *Entry) Set(x, now float64) {
	if e.noLock {
		e.setLocked(x, now)
		return
	}
	e.mu.Lock()
	e.setLocked(x, now)
	e.mu.Unlock()
}

func (e *Entry) setLocked(x, now float64) {
	e.value = x
	e.n++
	e.lastUpdate = now
	if e.hist != nil {
		e.hist.Push(now, x)
	}
}

// Key is a dense handle for a model name interned in one Store's symbol
// table: the per-tick loop resolves each name to a Key once (Intern or
// LookupKey) and thereafter reads and writes the model by slice index —
// no string concatenation, no map hashing. The zero Key is "not interned";
// valid keys are positive. Keys are permanent for the life of the store:
// deleting the model (Store.Delete) clears the entry behind the key, and a
// later ObserveKey/EnsureKey recreates it fresh, exactly as the string path
// would. Keys are store-local — never use a Key against a different Store.
type Key int32

// slot is what a Key indexes: the interned identity plus the live entry
// (nil when the model does not currently exist).
type slot struct {
	name  string
	scope Scope
	e     *Entry
}

// Store is a threadsafe registry of model entries keyed by name. The store
// lock guards the registry map and the symbol table only; each Entry
// carries its own lock, so concurrent observations of different models
// never contend and a single Observe acquires the registry lock at most
// once. Stores with exactly one owning goroutine can elide all of that —
// see Unshared.
type Store struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	keys    map[string]Key // symbol table: name -> Key (see Intern)
	slots   []slot         // Key k lives at slots[k-1]
	alpha   float64
	histLen int

	// unshared elides the registry lock, per-entry locks and atomic
	// counters; set only through Unshared, only while single-owner.
	unshared bool

	// Last-Get cache, used only when unshared (no lock protects it): hot
	// loops read the same model by the same constant string every tick, so
	// the repeat case is a pointer compare instead of a map hash.
	lastGetName string
	lastGet     *Entry

	// Entry arena: entries and their ring seed storage are carved from
	// per-store chunks (guarded by mu like the registry), so creating a
	// model — the dominant allocation of a populated run — costs a
	// fraction of an allocation instead of several. Chunks are never
	// reclaimed while the store lives; entries are permanent by design
	// (Delete unlinks, the Key machinery assumes slots persist).
	boxes []entryBox
	nbox  int
	slab  []float64

	reads  atomic.Int64 // instrumentation: model consultations (for E9 overhead)
	writes atomic.Int64
	// Unshared-mode instrumentation: plain counters, folded into
	// ReadCount/WriteCount alongside the atomics.
	readsU, writesU int64

	// Kept export order (see exportOrder), guarded by mu like the
	// registry. Once the store has been exported or restored, kept is set
	// and its entries' strictly increasing name order is in order — or,
	// straight after a restore, in the restored entry block itself; fresh
	// holds the entries created since, unsorted, and dropped records a
	// Delete since. A store never exported or restored keeps none of it.
	// Only model creation and Delete touch these fields between exports,
	// so they sit after the ones every read and write uses.
	kept     bool
	order    []*Entry
	restored []entryBox
	fresh    []*Entry
	dropped  bool
}

// NewStore returns a store whose entries smooth with factor alpha and keep
// histLen historical points (histLen = 0 disables history).
func NewStore(alpha float64, histLen int) *Store {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &Store{entries: make(map[string]*Entry), alpha: alpha, histLen: histLen}
}

// Unshared marks the store single-owner: the registry lock, the per-entry
// locks and the atomic instrumentation counters are elided from every
// subsequent operation. The population engine sets this on each agent's
// private store (never on a store shared between agents), which removes
// all synchronization from the tick hot path. It must be called while no
// other goroutine can touch the store, and is irreversible; concurrent use
// of an unshared store is a data race by contract (the -race tests assert
// that shared stores keep today's locked behavior).
func (s *Store) Unshared() {
	s.mu.Lock()
	s.unshared = true
	for _, e := range s.entries {
		e.noLock = true
	}
	s.mu.Unlock()
}

func (s *Store) countRead() {
	if s.unshared {
		s.readsU++
	} else {
		s.reads.Add(1)
	}
}

func (s *Store) countWrite() {
	if s.unshared {
		s.writesU++
	} else {
		s.writes.Add(1)
	}
}

// entryBox bundles an entry with its history ring so both come out of one
// arena chunk; see Store.newEntry.
type entryBox struct {
	e Entry
	r Ring
}

// Arena chunk sizes: entries per box chunk, and ring seeds per float slab.
const (
	boxChunk  = 8
	slabChunk = 16
)

// newEntry builds an entry with the store's parameters; callers must hold
// the registry write lock (or own the store exclusively when unshared).
// Model creation — every first sighting of a peer or stimulus — is the
// dominant allocation site of a populated run, so entries, their rings and
// the rings' seed storage are carved from per-store arena chunks: a new
// model costs a fraction of an allocation amortized. A store that keeps
// its export order lists the new entry as fresh (see exportOrder).
func (s *Store) newEntry(name string, scope Scope) *Entry {
	var e *Entry
	if s.histLen <= 0 {
		e = &Entry{Name: name, Scope: scope, alpha: s.alpha, noLock: s.unshared}
	} else {
		if s.nbox == len(s.boxes) {
			s.boxes = make([]entryBox, boxChunk)
			s.nbox = 0
		}
		box := &s.boxes[s.nbox]
		s.nbox++
		box.e = Entry{Name: name, Scope: scope, alpha: s.alpha, noLock: s.unshared}
		if seed := ringSeed; s.histLen >= seed {
			// Common case (window at least the seed size): take the seed
			// arrays from the shared float slab instead of a fresh allocation.
			if len(s.slab) < 2*seed {
				s.slab = make([]float64, 2*seed*slabChunk)
			}
			b := s.slab[: 2*seed : 2*seed]
			s.slab = s.slab[2*seed:]
			box.r = Ring{t: b[:seed:seed], v: b[seed:], max: s.histLen}
		} else {
			box.r.init(s.histLen)
		}
		box.e.hist = &box.r
		e = &box.e
	}
	if s.kept {
		s.keepFresh(e)
	}
	return e
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
	if s.unshared {
		e := s.entries[name]
		if e == nil {
			e = s.newEntry(name, scope)
			s.entries[name] = e
			s.bindSlot(name, e)
		}
		return e
	}
	s.mu.RLock()
	e := s.entries[name]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		e = s.newEntry(name, scope)
		s.entries[name] = e
		s.bindSlot(name, e)
	}
	return e
}

// bindSlot points an already-interned key's slot at e (no-op when name was
// never interned). Callers must hold the write lock / own the store.
func (s *Store) bindSlot(name string, e *Entry) {
	if k, ok := s.keys[name]; ok {
		s.slots[k-1].e = e
	}
}

// Intern returns the permanent Key for name, adding it to the symbol table
// on first use. Interning alone does not create the model: the entry comes
// into existence on the first ObserveKey/SetKey/EnsureKey (or through the
// string path), with the scope recorded here. Call once per name outside
// the hot loop, then use the Key-based accessors per tick.
func (s *Store) Intern(name string, scope Scope) Key {
	if s.unshared {
		if k, ok := s.keys[name]; ok {
			return k
		}
		return s.internLocked(name, scope)
	}
	s.mu.RLock()
	k, ok := s.keys[name]
	s.mu.RUnlock()
	if ok {
		return k
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internLocked(name, scope)
}

func (s *Store) internLocked(name string, scope Scope) Key {
	if k, ok := s.keys[name]; ok {
		return k
	}
	if s.keys == nil {
		s.keys = make(map[string]Key)
	}
	e := s.entries[name]
	if e != nil {
		// The model already exists: its actual scope wins over the
		// caller's argument, so a later delete-and-recreate through the
		// key reproduces the model exactly (an agent restored from a
		// checkpoint interns against restored entries, whose scope is
		// authoritative).
		scope = e.Scope
	}
	s.slots = append(s.slots, slot{name: name, scope: scope, e: e})
	k := Key(len(s.slots))
	s.keys[name] = k
	return k
}

// LookupKey resolves name to its Key and current entry without ever
// creating a model: it returns (0, nil) when no such model exists. When the
// model exists but was created through the string path, it is interned here
// so the caller can switch to the Key-based accessors. It counts as one
// model consultation, exactly like Get.
func (s *Store) LookupKey(name string) (Key, *Entry) {
	s.countRead()
	if s.unshared {
		if k, ok := s.keys[name]; ok {
			return k, s.slots[k-1].e
		}
		if e := s.entries[name]; e != nil {
			return s.internLocked(name, e.Scope), e
		}
		return 0, nil
	}
	s.mu.RLock()
	if k, ok := s.keys[name]; ok {
		e := s.slots[k-1].e
		s.mu.RUnlock()
		return k, e
	}
	e := s.entries[name]
	s.mu.RUnlock()
	if e == nil {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internLocked(name, e.Scope), s.entries[name]
}

// entryForKey returns the entry behind k, creating it (with the interned
// name and scope) when create is set and the model is currently absent.
func (s *Store) entryForKey(k Key, create bool) *Entry {
	if k <= 0 {
		panic(fmt.Sprintf("knowledge: invalid key %d", k))
	}
	if s.unshared {
		sl := &s.slots[k-1]
		if sl.e == nil && create {
			sl.e = s.newEntry(sl.name, sl.scope)
			s.entries[sl.name] = sl.e
		}
		return sl.e
	}
	s.mu.RLock()
	sl := s.slots[k-1]
	s.mu.RUnlock()
	if sl.e != nil || !create {
		return sl.e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &s.slots[k-1]
	if p.e == nil {
		p.e = s.newEntry(p.name, p.scope)
		s.entries[p.name] = p.e
	}
	return p.e
}

// ObserveKey records an observation for the interned model k (creating the
// entry if needed): the hash-free equivalent of Observe.
func (s *Store) ObserveKey(k Key, x, now float64) {
	s.countWrite()
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
	s.countRead()
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
	s.countWrite()
	s.Ensure(name, scope).Observe(x, now)
}

// Get returns the entry for name, or nil if absent. It counts as a model
// consultation.
func (s *Store) Get(name string) *Entry {
	s.countRead()
	if s.unshared {
		if e := s.lastGet; e != nil && name == s.lastGetName {
			return e
		}
		e := s.entries[name]
		if e != nil {
			s.lastGetName, s.lastGet = name, e
		}
		return e
	}
	s.mu.RLock()
	e := s.entries[name]
	s.mu.RUnlock()
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
func (s *Store) ReadCount() int { return int(s.reads.Load() + s.readsU) }

// WriteCount reports how many observations the store has absorbed.
func (s *Store) WriteCount() int { return int(s.writes.Load() + s.writesU) }

// Delete removes the named entry; a later Ensure/Observe (or key-based
// write through an interned Key) recreates it fresh (first observation
// re-seeds the value). Deleting a missing name is a no-op. Meta-level
// processes use this to discard models that drift detection has
// invalidated. The name's Key, if interned, stays valid and simply points
// at nothing until the model is recreated.
func (s *Store) Delete(name string) {
	if s.unshared {
		delete(s.entries, name)
		s.bindSlot(name, nil)
		s.lastGetName, s.lastGet = "", nil
		s.dropped = true
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, name)
	s.bindSlot(name, nil)
	s.dropped = true
}

// Names returns all entry names, sorted, optionally filtered by scope.
func (s *Store) Names(scope Scope, filter bool) []string {
	if !s.unshared {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	var names []string
	for n, e := range s.entries {
		if filter && e.Scope != scope {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of entries.
func (s *Store) Len() int {
	if s.unshared {
		return len(s.entries)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Inventory renders a human-readable snapshot, used by self-explanation.
func (s *Store) Inventory(now float64) string {
	if !s.unshared {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	var names []string
	for n := range s.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		e := s.entries[n]
		if !e.noLock {
			e.mu.RLock()
		}
		v, count, conf := e.value, e.n, e.confidenceLocked(now)
		if !e.noLock {
			e.mu.RUnlock()
		}
		fmt.Fprintf(&b, "%-28s %8.3f  conf=%.2f  scope=%s  n=%d\n",
			n, v, conf, e.Scope, count)
	}
	return b.String()
}

// Ring is a bounded time-stamped history buffer: the substrate of
// time-awareness. The zero value is unusable; create with NewRing.
//
// Storage grows geometrically from ringSeed points toward the bound rather
// than being allocated up front: most models never fill their window (heap
// profiles showed full-capacity rings were the single largest source of
// object count in a populated run), and the bound only matters once enough
// observations arrive to reach it. Capacity is an implementation detail —
// snapshots serialize contents oldest-first (see Store.AppendState), never
// the backing size — so two rings with equal contents are indistinguishable.
type Ring struct {
	t, v []float64
	head int
	size int
	max  int // the bound: len(t) grows toward it, never past it
}

// ringSeed is the initial backing size of a new ring (when the bound allows).
const ringSeed = 8

// NewRing returns a ring holding up to capacity points.
func NewRing(capacity int) *Ring {
	r := new(Ring)
	r.init(capacity)
	return r
}

// init sets up the ring in place: one backing slab serves both the time and
// value arrays (halving the object count of entry creation, which dominates
// populated-run heap profiles).
func (r *Ring) init(capacity int) {
	if capacity <= 0 {
		panic("knowledge: ring capacity must be > 0")
	}
	n := capacity
	if n > ringSeed {
		n = ringSeed
	}
	b := make([]float64, 2*n)
	*r = Ring{t: b[:n:n], v: b[n:], max: capacity}
}

// ringLen is the backing length of a ring bounded at max after k <= max
// Pushes into NewRing(max): the seed, doubled (capped at the bound) until
// it holds k points.
func ringLen(max, k int) int {
	n := min(max, ringSeed)
	for n < k {
		n = min(2*n, max)
	}
	return n
}

// Push appends a point, evicting the oldest when full at the bound. The wrap
// is a compare, not a modulo: Push runs once per observation per model and
// the integer division dominated tick profiles. A ring full below its bound
// doubles first (amortized O(1); steady state never allocates).
//
//sacs:hotpath
func (r *Ring) Push(t, v float64) {
	if r.size == len(r.t) && r.size < r.max {
		r.grow()
	}
	r.t[r.head] = t
	r.v[r.head] = v
	r.head++
	if r.head == len(r.t) {
		r.head = 0
	}
	if r.size < len(r.t) {
		r.size++
	}
}

// grow doubles the backing arrays (capped at the bound), linearizing the
// contents oldest-first so index arithmetic stays uniform. Only called when
// the ring is full, so head is the oldest point.
func (r *Ring) grow() {
	n := len(r.t) * 2
	if n > r.max {
		n = r.max
	}
	b := make([]float64, 2*n)
	nt, nv := b[:n:n], b[n:]
	k := copy(nt, r.t[r.head:])
	copy(nt[k:], r.t[:r.head])
	k = copy(nv, r.v[r.head:])
	copy(nv[k:], r.v[:r.head])
	r.t, r.v = nt, nv
	r.head = r.size
}

// Len reports how many points are stored.
func (r *Ring) Len() int { return r.size }

// Values returns stored values oldest-first.
func (r *Ring) Values() []float64 { return r.linear(r.v) }

// Times returns stored timestamps oldest-first.
func (r *Ring) Times() []float64 { return r.linear(r.t) }

// linear copies the stored window of buf (r.t or r.v) out oldest-first as
// at most two block copies — the tail half from the oldest point, then the
// wrapped head half — instead of a modulo per element.
func (r *Ring) linear(buf []float64) []float64 {
	out := make([]float64, r.size)
	start := r.head - r.size
	if start < 0 {
		start += len(buf)
	}
	k := copy(out, buf[start:])
	copy(out[k:], buf[:r.head])
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
// it once per stimulus per tick.
//
//sacs:hotpath
func (r *Ring) Trend() float64 {
	if r.size < 2 {
		return 0
	}
	start := r.head - r.size
	if start < 0 {
		start += len(r.t)
	}
	var mt, mv float64
	for i, j := 0, start; i < r.size; i++ {
		mt += r.t[j]
		mv += r.v[j]
		if j++; j == len(r.t) {
			j = 0
		}
	}
	n := float64(r.size)
	mt /= n
	mv /= n
	var num, den float64
	for i, j := 0, start; i < r.size; i++ {
		num += (r.t[j] - mt) * (r.v[j] - mv)
		den += (r.t[j] - mt) * (r.t[j] - mt)
		if j++; j == len(r.t) {
			j = 0
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
