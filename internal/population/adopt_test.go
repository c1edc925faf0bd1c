package population_test

import (
	"bytes"
	"reflect"
	"testing"

	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// TestAdoptReleaseMidRunBytesEqual: shards move between the parts of a
// split transport mid-run — onto a part they are not adjacent to, next to
// a part's own shards, back into the gap they left, and finally emptying a
// part — the way a cluster migrates them (ExportRange, Adopt, Release).
// Every tick's stats and the encoded snapshot after every move stay
// identical to the plain single-transport engine.
func TestAdoptReleaseMidRunBytesEqual(t *testing.T) {
	pool := runner.New(2)
	defer pool.Close()
	cfg := experiments.S2Config(64, 8, 3, pool)
	ref := population.New(cfg)
	split := population.NewSplitTransport(cfg, 3, 5) // parts [0,3) [3,5) [5,8)
	eng, err := population.NewWithTransport(cfg, split)
	if err != nil {
		t.Fatal(err)
	}

	moves := map[int]struct{ lo, hi, from, to int }{
		6:  {1, 2, 0, 2}, // not adjacent to [5,8); leaves a gap in part 0
		10: {4, 5, 1, 2}, // adjacent to part 2's [5,8)
		14: {2, 3, 0, 1}, // adjacent to part 1's remaining [3,4)
		18: {1, 2, 2, 0}, // back into the gap it left
		22: {0, 2, 0, 1}, // part 0 ends up owning nothing
	}
	for tick := 0; tick < 28; tick++ {
		if m, ok := moves[tick]; ok {
			if err := split.Move(m.lo, m.hi, m.from, m.to); err != nil {
				t.Fatalf("tick %d: move [%d, %d) %d→%d: %v", tick, m.lo, m.hi, m.from, m.to, err)
			}
			if !bytes.Equal(encodeSnapshot(t, ref), encodeSnapshot(t, eng)) {
				t.Fatalf("tick %d: snapshot bytes diverge after moving [%d, %d)", tick, m.lo, m.hi)
			}
		}
		if tick%3 == 0 {
			st := core.Stimulus{Name: "ext", Source: "client", Scope: core.Public, Value: float64(tick), Time: float64(tick)}
			for _, e := range []*population.Engine{ref, eng} {
				if err := e.Enqueue(tick%64, st); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := ref.Tick()
		got, err := eng.TickErr()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tick %d diverges:\nsingle %+v\nsplit  %+v", tick, want, got)
		}
	}
	if !bytes.Equal(encodeSnapshot(t, ref), encodeSnapshot(t, eng)) {
		t.Fatal("final snapshot bytes diverge")
	}
}
