package knowledge

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refName is the reference model's view of one name in a store's symbol
// table: the Key its slot was given, whether that Key has been handed out
// and with which scope, and the live model, if any.
type refName struct {
	key       Key
	interned  bool
	slotScope Scope
	live      bool
	scope     Scope
	n         int
	value     float64
}

// refStore is a plain-map reference for a store's symbol table and models.
type refStore struct {
	names map[string]*refName
}

// see returns name's reference entry, giving a name the store has never
// seen the next Key, as the store does.
func (r *refStore) see(name string, scope Scope) *refName {
	if n := r.names[name]; n != nil {
		return n
	}
	n := &refName{key: Key(len(r.names) + 1), slotScope: scope}
	r.names[name] = n
	return n
}

func (r *refStore) liveNames(scope Scope, filter bool) []string {
	var out []string
	for name, n := range r.names {
		if n.live && (!filter || n.scope == scope) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// refSnapshot is a saved store state and the reference's live models then.
type refSnapshot struct {
	state []byte
	live  map[string]refName
}

// TestSymbolTableMatchesReference runs random sequences of Intern,
// InternBytes, Ensure, ObserveKey, Delete, LookupKey, Get and RestoreState
// over 10k names against a map-based reference. It checks that Keys are
// dense and permanent, that Get, GetKey, LookupKey, Len and Names agree
// with the reference, that interning never creates a model, and that a
// restored store re-encodes to the bytes it was restored from. The subtest
// is named shared=false: the store has one owner, as every store does.
func TestSymbolTableMatchesReference(t *testing.T) {
	const names, ops, checkEvery, alpha = 10_000, 60_000, 6_000, 0.5
	pool := make([]string, names)
	for i := range pool {
		pool[i] = fmt.Sprintf("m/%05d", i)
	}
	t.Run("shared=false", func(t *testing.T) {
		s := NewStore(alpha, 4)
		ref := &refStore{names: map[string]*refName{}}
		rng := rand.New(rand.NewSource(7))
		var interned []string // names whose Key has been handed out
		var snap *refSnapshot
		var buf []byte
		scopes := [2]Scope{Private, Public}

		checkModel := func(op, name string, e *Entry) {
			t.Helper()
			n := ref.names[name]
			if n == nil || !n.live {
				if e != nil {
					t.Fatalf("%s(%s): got a model, the reference has none", op, name)
				}
				return
			}
			switch {
			case e == nil:
				t.Fatalf("%s(%s): got no model, the reference has one", op, name)
			case e.Name != name || e.Scope != n.scope || e.Updates() != n.n || e.Updates() > 0 && e.Value() != n.value:
				t.Fatalf("%s(%s): model %s scope %v n %d value %v, want scope %v n %d value %v",
					op, name, e.Name, e.Scope, e.Updates(), e.Value(), n.scope, n.n, n.value)
			}
		}
		checkKey := func(op, name string, k Key) {
			t.Helper()
			if n := ref.names[name]; n == nil || k != n.key {
				t.Fatalf("%s(%s) = key %d, reference %+v", op, name, k, n)
			}
		}
		checkAll := func() {
			t.Helper()
			live := ref.liveNames(0, false)
			if s.Len() != len(live) {
				t.Fatalf("Len = %d, reference holds %d models", s.Len(), len(live))
			}
			if got := s.Names(0, false); !slices.Equal(got, live) {
				t.Fatalf("Names lists %d models, reference %d", len(got), len(live))
			}
			if got, want := s.Names(Public, true), ref.liveNames(Public, true); !slices.Equal(got, want) {
				t.Fatalf("Names(Public) lists %d models, reference %d", len(got), len(want))
			}
			for name, n := range ref.names {
				checkModel("Get", name, s.Get(name))
				if n.interned {
					checkModel("GetKey", name, s.GetKey(n.key))
				}
			}
		}
		internRef := func(name string, scope Scope) {
			n := ref.names[name]
			if n == nil {
				n = ref.see(name, scope)
			} else if !n.interned && n.live {
				scope = n.scope
			}
			if !n.interned {
				n.slotScope, n.interned = scope, true
				interned = append(interned, name)
			}
		}

		for i := 0; i < ops; i++ {
			now := float64(i)
			name := pool[rng.Intn(names)]
			scope := scopes[rng.Intn(2)]
			op := rng.Intn(100)
			if rng.Intn(2000) == 0 {
				op = 100 // a save or a restore, about 30 of each per run
			}
			switch {
			case op < 15: // Intern, InternBytes
				before, wasLive := s.Len(), ref.names[name] != nil && ref.names[name].live
				var k Key
				if op < 8 {
					k = s.Intern(name, scope)
				} else {
					buf = append(buf[:0], name...)
					k = s.InternBytes(buf, scope)
				}
				internRef(name, scope)
				checkKey("Intern", name, k)
				if s.Len() != before || !wasLive && (s.Get(name) != nil || s.GetKey(k) != nil) {
					t.Fatalf("Intern(%s) created a model", name)
				}
			case op < 30: // Ensure
				n := ref.see(name, scope)
				if !n.live {
					*n = refName{key: n.key, interned: n.interned, slotScope: n.slotScope, live: true, scope: scope}
				}
				checkModel("Ensure", name, s.Ensure(name, scope))
			case op < 60: // ObserveKey through a handed-out Key
				if len(interned) == 0 {
					continue
				}
				name = interned[rng.Intn(len(interned))]
				n := ref.names[name]
				x := float64(rng.Intn(1000))
				s.ObserveKey(n.key, x, now)
				if !n.live {
					n.live, n.scope, n.n, n.value = true, n.slotScope, 0, 0
				}
				if n.n == 0 {
					n.value = x
				} else {
					n.value += alpha * (x - n.value)
				}
				n.n++
				checkModel("ObserveKey", name, s.GetKey(n.key))
			case op < 70: // Delete
				s.Delete(name)
				if n := ref.names[name]; n != nil {
					n.live = false
				}
				checkModel("Delete", name, s.Get(name))
			case op < 82: // LookupKey
				k, e := s.LookupKey(name)
				n := ref.names[name]
				if n == nil || !n.interned && !n.live {
					if k != 0 || e != nil {
						t.Fatalf("LookupKey(%s) = %d, %v; the reference has no model", name, k, e)
					}
					continue
				}
				if !n.interned {
					internRef(name, n.scope)
				}
				checkKey("LookupKey", name, k)
				checkModel("LookupKey", name, e)
			case op < 100: // Get
				checkModel("Get", name, s.Get(name))
			case snap == nil || rng.Intn(2) == 0: // save a state to restore later
				live := map[string]refName{}
				for name, n := range ref.names {
					if n.live {
						live[name] = *n
					}
				}
				snap = &refSnapshot{state: stateBytes(s), live: live}
			default: // RestoreState, into this store and into a fresh one
				if err := restoreBytes(s, snap.state); err != nil {
					t.Fatal(err)
				}
				for name, n := range ref.names {
					n.live = false
					if saved, ok := snap.live[name]; ok {
						n.live, n.scope, n.n, n.value = true, saved.scope, saved.n, saved.value
					}
				}
				if got := stateBytes(s); !bytes.Equal(got, snap.state) {
					t.Fatalf("op %d: a restored store re-encodes to other bytes", i)
				}
				fresh := NewStore(alpha, 4)
				if err := restoreBytes(fresh, snap.state); err != nil {
					t.Fatal(err)
				}
				if got := stateBytes(fresh); !bytes.Equal(got, snap.state) {
					t.Fatalf("op %d: a store restored fresh re-encodes to other bytes", i)
				}
				// A fresh store's slots come in the state's name order.
				for j, name := range fresh.Names(0, false) {
					if k, _ := fresh.LookupKey(name); k != Key(j+1) {
						t.Fatalf("op %d: fresh store key of %s = %d, want %d", i, name, k, j+1)
					}
				}
			}
			if i%checkEvery == checkEvery-1 {
				checkAll()
			}
		}
		checkAll()
		// Keys are dense: every name the store has seen holds one Key
		// in 1..len, handed out in the order the names were first seen.
		if len(ref.names) < names/2 {
			t.Fatalf("the run saw only %d names", len(ref.names))
		}
		for name, n := range ref.names {
			if k := s.Intern(name, Private); k != n.key || k < 1 || int(k) > len(ref.names) {
				t.Fatalf("%s: key %d, want %d of %d", name, k, n.key, len(ref.names))
			}
		}
		if k := s.Intern("a name never seen", Private); int(k) != len(ref.names)+1 {
			t.Fatalf("a new name got key %d, want %d", k, len(ref.names)+1)
		}
	})
}
