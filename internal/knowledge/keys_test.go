package knowledge

import (
	"bytes"
	"fmt"
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

// TestKeysSurviveRestoreState: interned keys are rebound to the entries
// RestoreState rebuilds, and the counters continue from the restored ones.
func TestKeysSurviveRestoreState(t *testing.T) {
	s := NewStore(0.3, 4)
	k := s.Intern("m", Private)
	s.ObserveKey(k, 5, 1)
	writes := s.WriteCount()
	st := stateBytes(s)

	r := NewStore(0.3, 4)
	kr := r.Intern("m", Private)
	if err := restoreBytes(r, st); err != nil {
		t.Fatal(err)
	}
	e := r.GetKey(kr)
	if e == nil || e.Value() != 5 {
		t.Fatalf("restored entry not reachable through pre-restore key: %+v", e)
	}
	r.ObserveKey(kr, 7, 2)
	if r.WriteCount() != writes+1 {
		t.Fatalf("write counter after restore = %d, want %d", r.WriteCount(), writes+1)
	}
}

// TestRegistryAcrossPaths drives the one registry — the symbol table and
// its slots — through every path that reaches it, interleaved: models
// created through the string path, Intern, InternBytes and LookupKey,
// deleted and recreated, counted and exported, while the slot table grows.
// Afterwards every name resolves to one key and Len counts exactly the
// live models.
func TestRegistryAcrossPaths(t *testing.T) {
	s := NewStore(0.3, 16)
	const paths, names = 8, 200
	name := func(i int) string { return fmt.Sprintf("m%03d", i) }
	var buf []byte
	for i := 0; i < names; i++ {
		for g := 0; g < paths; g++ {
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
	}
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
}
