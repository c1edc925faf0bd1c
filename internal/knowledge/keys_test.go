package knowledge

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestInternKeyFastPathMatchesStringPath drives the same observation
// sequence through the string API and the interned-key API and requires
// byte-identical exported state: the fast path must be a pure optimization.
func TestInternKeyFastPathMatchesStringPath(t *testing.T) {
	byName := NewStore(0.3, 8)
	byKey := NewStore(0.3, 8)
	k := byKey.Intern("stim/load", Private)
	if k == 0 {
		t.Fatal("Intern returned the zero key")
	}
	if k2 := byKey.Intern("stim/load", Public); k2 != k {
		t.Fatalf("re-interning returned a different key: %d vs %d", k2, k)
	}
	for i := 0; i < 20; i++ {
		x, now := float64(i%7), float64(i)
		byName.Observe("stim/load", Private, x, now)
		byKey.ObserveKey(k, x, now)
	}
	if got, want := byKey.ValueKey(k, -1), byName.Value("stim/load", -1); got != want {
		t.Fatalf("ValueKey = %v, string path = %v", got, want)
	}
	if a, b := stateBytes(byName), stateBytes(byKey); !bytes.Equal(a, b) {
		t.Fatalf("states diverged:\n%x\n%x", a, b)
	}
}

// TestInternDoesNotCreateModel pins the symbol-table contract: Intern
// reserves a key without bringing the model into existence.
func TestInternDoesNotCreateModel(t *testing.T) {
	s := NewStore(0.3, 0)
	k := s.Intern("pred/x", Private)
	if s.Len() != 0 {
		t.Fatalf("Intern created an entry: Len=%d", s.Len())
	}
	if e := s.GetKey(k); e != nil {
		t.Fatalf("GetKey on uncreated model returned %v", e)
	}
	if got := s.ValueKey(k, 42); got != 42 {
		t.Fatalf("ValueKey default = %v", got)
	}
	s.SetKey(k, 7, 1)
	if s.Len() != 1 || s.Value("pred/x", 0) != 7 {
		t.Fatalf("SetKey did not create the model: len=%d val=%v", s.Len(), s.Value("pred/x", 0))
	}
}

// TestKeySurvivesDelete: deleting a model leaves its key valid; the next
// key-based write recreates the entry fresh, exactly as the string path
// does.
func TestKeySurvivesDelete(t *testing.T) {
	s := NewStore(0.5, 4)
	k := s.Intern("m", Private)
	s.ObserveKey(k, 10, 1)
	s.ObserveKey(k, 20, 2)
	s.Delete("m")
	if e := s.GetKey(k); e != nil {
		t.Fatal("deleted model still reachable through its key")
	}
	s.ObserveKey(k, 99, 3)
	if got := s.ValueKey(k, 0); got != 99 {
		t.Fatalf("recreated model did not reseed: %v", got)
	}
	if e := s.Get("m"); e == nil || e.Updates() != 1 {
		t.Fatalf("string path sees a different entry after key recreation: %+v", e)
	}
}

// TestLookupKeyAdoptsStringEntries: a model created through the string path
// becomes key-addressable via LookupKey without being recreated.
func TestLookupKeyAdoptsStringEntries(t *testing.T) {
	s := NewStore(0.5, 0)
	if k, e := s.LookupKey("ghost"); k != 0 || e != nil {
		t.Fatalf("LookupKey invented a model: %d %v", k, e)
	}
	s.Observe("real", Public, 3, 1)
	k, e := s.LookupKey("real")
	if k == 0 || e == nil || e.Value() != 3 {
		t.Fatalf("LookupKey missed an existing model: %d %+v", k, e)
	}
	if s.GetKey(k) != e {
		t.Fatal("key not bound to the adopted entry")
	}
	// Ensure through the string path after interning must bind the slot.
	s.Delete("real")
	e2 := s.Ensure("real", Public)
	if s.GetKey(k) != e2 {
		t.Fatal("string-path recreation did not rebind the interned key")
	}
}

// TestInternAdoptsExistingScope: interning over a model that already
// exists records the model's actual scope, not the caller's argument — so
// delete-and-recreate through the key reproduces the model exactly (the
// restore path interns with a fallback scope against restored entries).
func TestInternAdoptsExistingScope(t *testing.T) {
	s := NewStore(0.5, 0)
	s.Observe("pred/x", Public, 1, 0)
	k := s.Intern("pred/x", Private) // wrong-scope argument must not win
	s.Delete("pred/x")
	s.SetKey(k, 2, 1)
	if e := s.Get("pred/x"); e == nil || e.Scope != Public {
		t.Fatalf("recreated model scope = %+v, want Public", e)
	}
}

// TestUnsharedMatchesShared runs one op sequence through a shared store and
// an unshared one: every observable — values, counters, exported state —
// must be identical. Unshared is an optimization, not a semantic.
func TestUnsharedMatchesShared(t *testing.T) {
	shared := NewStore(0.3, 8)
	solo := NewStore(0.3, 8)
	solo.Unshared()
	drive := func(s *Store) {
		k := s.Intern("stim/a", Private)
		for i := 0; i < 30; i++ {
			s.ObserveKey(k, float64(i%5), float64(i))
			s.Observe("stim/b", Public, float64(i), float64(i))
			s.Ensure("derived", Private).Set(float64(i)*2, float64(i))
			_ = s.Value("stim/b", 0)
			_ = s.GetKey(k)
		}
		s.Delete("stim/b")
		s.ObserveKey(k, 1, 31)
	}
	drive(shared)
	drive(solo)
	if shared.ReadCount() != solo.ReadCount() || shared.WriteCount() != solo.WriteCount() {
		t.Fatalf("counters diverged: reads %d/%d writes %d/%d",
			shared.ReadCount(), solo.ReadCount(), shared.WriteCount(), solo.WriteCount())
	}
	if a, b := stateBytes(shared), stateBytes(solo); !bytes.Equal(a, b) {
		t.Fatalf("states diverged:\n%x\n%x", a, b)
	}
	if shared.Inventory(31) != solo.Inventory(31) {
		t.Fatal("inventories diverged")
	}
}

// TestUnsharedSurvivesSetState: entries rebuilt by RestoreState on an
// unshared store must stay lock-elided, and interned keys must be rebound
// to the restored entries.
func TestUnsharedSurvivesSetState(t *testing.T) {
	s := NewStore(0.3, 4)
	s.Unshared()
	k := s.Intern("m", Private)
	s.ObserveKey(k, 5, 1)
	writes := s.WriteCount()
	st := stateBytes(s)

	r := NewStore(0.3, 4)
	r.Unshared()
	kr := r.Intern("m", Private)
	if err := restoreBytes(r, st); err != nil {
		t.Fatal(err)
	}
	e := r.GetKey(kr)
	if e == nil || e.Value() != 5 {
		t.Fatalf("restored entry not reachable through pre-restore key: %+v", e)
	}
	if e.mu != nil {
		t.Fatal("restored entry on an unshared store carries a lock")
	}
	r.ObserveKey(kr, 7, 2)
	if r.WriteCount() != writes+1 {
		t.Fatalf("write counter after restore = %d, want %d", r.WriteCount(), writes+1)
	}
}

// TestSharedStoreStillLocksUnderRace is the contract's other half: a store
// NOT marked Unshared keeps full locking, so concurrent mixed access —
// string and key paths, reads, writes, deletes, state exports — must be
// race-free. Run with -race (CI does).
func TestSharedStoreStillLocksUnderRace(t *testing.T) {
	s := NewStore(0.3, 16)
	k := s.Intern("hot", Private)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch g % 4 {
				case 0:
					s.ObserveKey(k, float64(i), float64(i))
					s.Observe("cold", Public, float64(i), float64(i))
				case 1:
					_ = s.ValueKey(k, 0)
					if _, e := s.LookupKey("cold"); e != nil {
						_, _ = e.Trend() // races the ring a second update builds
						_ = e.History()
					}
				case 2:
					if e := s.GetKey(k); e != nil {
						_, _ = e.Trend()
						_ = e.Confidence(float64(i))
					}
					if i%100 == 0 {
						s.Delete("cold")
					}
				case 3:
					_ = stateBytes(s)
					_ = s.Names(Private, false)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.GetKey(k) == nil {
		t.Fatal("hot entry vanished")
	}
	for _, e := range s.liveEntries(nil) {
		if e.mu == nil {
			t.Fatalf("%s: an entry of a shared store carries no lock", e.Name)
		}
	}
}

// TestSharedRegistryUnderRace drives the one registry — the symbol table
// and its slots — of a shared store from many goroutines at once: models
// created through the string path, Intern, InternBytes and LookupKey,
// deleted and recreated, counted and exported, while the slot table grows
// under readers. Run with -race (CI does). Afterwards every name resolves
// to one key and Len counts exactly the live models.
func TestSharedRegistryUnderRace(t *testing.T) {
	s := NewStore(0.3, 16)
	const workers, names = 8, 200
	name := func(i int) string { return fmt.Sprintf("m%03d", i) }
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < names; i++ {
				n := name((i*7 + g*31) % names)
				switch g % 4 {
				case 0:
					s.Observe(n, Public, float64(i), float64(i))
				case 1:
					s.ObserveKey(s.Intern(n, Private), float64(i), float64(i))
				case 2:
					buf = append(buf[:0], n...)
					k := s.InternBytes(buf, Public)
					_ = s.GetKey(k)
					if _, e := s.LookupKey(n); e != nil {
						_, _ = e.Trend()
					}
				case 3:
					if i%10 == 0 {
						s.Delete(n)
					}
					_ = s.Get(n)
					_ = s.Len()
					if i%50 == 0 {
						_ = stateBytes(s)
						_ = s.Names(Public, true)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	live := 0
	for i := 0; i < names; i++ {
		n := name(i)
		k := s.Intern(n, Private)
		if k2, _ := s.LookupKey(n); k2 != k {
			t.Fatalf("%s: LookupKey = %d, Intern = %d", n, k2, k)
		}
		if e := s.Get(n); e != nil {
			live++
			if e != s.GetKey(k) {
				t.Fatalf("%s: Get and GetKey disagree", n)
			}
		}
	}
	if s.Len() != live {
		t.Fatalf("Len = %d, live models = %d", s.Len(), live)
	}
	if got := len(s.Names(Private, false)); got != live {
		t.Fatalf("Names lists %d models, live models = %d", got, live)
	}
	for _, e := range s.liveEntries(nil) {
		if e.mu == nil {
			t.Fatalf("%s: an entry of a shared store carries no lock", e.Name)
		}
	}
}
