package core

import (
	"fmt"
	"runtime"
	"testing"

	"sacs/internal/knowledge"
	"sacs/internal/learning"
)

func feed(p Process, values []float64) {
	for i, v := range values {
		p.Observe(float64(i), []Stimulus{{Name: "x", Scope: Private, Value: v, Time: float64(i)}})
	}
}

func TestTimeProcessPredictsAndScores(t *testing.T) {
	store := knowledge.NewStore(0.3, 32)
	tp := &TimeProcess{Store: store}
	feed(tp, []float64{5, 5, 5, 5, 5, 5, 5, 5})
	if got := store.Value("pred/x", -1); got != 5 {
		t.Fatalf("prediction on constant stream = %v", got)
	}
	if tp.ForecastError("x") != 0 {
		t.Fatalf("forecast error on constant stream = %v", tp.ForecastError("x"))
	}
	if tp.ForecastError("unknown") != 0 {
		t.Fatal("unknown stimulus should report 0 error")
	}
}

func TestTimeProcessSwapPredictorResets(t *testing.T) {
	store := knowledge.NewStore(0.3, 32)
	tp := &TimeProcess{Store: store}
	feed(tp, []float64{1, 2, 3, 4, 5, 6})
	if tp.MeanForecastError() == 0 {
		t.Fatal("ramp stream should have nonzero EWMA forecast error")
	}
	tp.SwapPredictor(func() learning.Predictor { return learning.NewHolt(0.5, 0.3) })
	if tp.MeanForecastError() != 0 {
		t.Fatal("swap did not reset error tracking")
	}
	// After the swap, Holt should track the ramp closely.
	for i := 6; i < 60; i++ {
		tp.Observe(float64(i), []Stimulus{{Name: "x", Scope: Private,
			Value: float64(i) + 1, Time: float64(i)}})
	}
	if tp.ForecastError("x") > 0.5 {
		t.Fatalf("holt forecast error on a pure ramp = %v", tp.ForecastError("x"))
	}
}

func TestStimulusProcessRecordsScope(t *testing.T) {
	store := knowledge.NewStore(0.3, 0)
	sp := &StimulusProcess{Store: store}
	sp.Observe(0, []Stimulus{
		{Name: "priv", Scope: Private, Value: 1, Time: 0},
		{Name: "pub", Scope: Public, Value: 2, Time: 0},
	})
	pub := store.Names(Public, true)
	if len(pub) != 1 || pub[0] != "stim/pub" {
		t.Fatalf("public stimulus scope lost: %v", pub)
	}
}

func TestTrendModelOnHistory(t *testing.T) {
	store := knowledge.NewStore(0.5, 32)
	sp := &StimulusProcess{Store: store}
	tp := &TimeProcess{Store: store}
	for i := 0; i < 20; i++ {
		batch := []Stimulus{{Name: "x", Scope: Private, Value: 2 * float64(i), Time: float64(i)}}
		sp.Observe(float64(i), batch)
		tp.Observe(float64(i), batch)
	}
	// Raw observations rise with slope 2; the trend model reads it off the
	// stimulus history ring.
	if tr := store.Value("trend/x", 0); tr < 1.5 || tr > 2.5 {
		t.Fatalf("trend = %v, want ≈ 2", tr)
	}
}

// TestPeerModelHeapBound pins what a once-seen peer costs: one agent hears
// from 100k distinct peers once each, and the heap it keeps afterwards,
// per peer model, stays within 142 bytes (133 measured on linux/amd64).
// The store's symbol table is the only index of the peer models, a model
// updated once has no ring and an entry carries no lock, so a model is its
// name, its 72 B entry, one 16 B slot and one 4 B index cell, with their
// tables' growth slack.
func TestPeerModelHeapBound(t *testing.T) {
	const peers, batchLen = 100_000, 1000
	sources := make([]string, peers)
	for i := range sources {
		sources[i] = fmt.Sprintf("p%06d", i)
	}
	batch := make([]Stimulus, batchLen)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	a := New(Config{Name: "self", Caps: FullStack, ExplainDepth: -1})
	for lo := 0; lo < peers; lo += batchLen {
		for i := range batch {
			batch[i] = Stimulus{Name: "load", Source: sources[lo+i], Scope: Public, Value: float64(i), Time: float64(lo)}
		}
		a.Inject(float64(lo), batch)
	}
	after := heap()
	runtime.KeepAlive(sources)
	if n := a.Store().Len(); n < peers {
		t.Fatalf("store holds %d models, want at least %d", n, peers)
	}
	per := float64(after-before) / peers
	t.Logf("%.0f B of heap per once-seen peer model", per)
	if per > 142 {
		t.Fatalf("a once-seen peer model keeps %.0f B of heap, want at most 142", per)
	}
	runtime.KeepAlive(a)
}

// TestInteractionObserveKnownPeersAllocFree: once the peer models exist,
// observing the same peers again — with the last-resolved cache missing on
// every stimulus — allocates nothing.
func TestInteractionObserveKnownPeersAllocFree(t *testing.T) {
	store := knowledge.NewStore(0.3, 64)
	ip := &InteractionProcess{Self: "self", Store: store, hot: &StepState{}}
	batch := []Stimulus{
		{Name: "load", Source: "p1", Scope: Public, Value: 1},
		{Name: "load", Source: "p2", Scope: Public, Value: 2},
		{Name: "temp", Source: "p1", Scope: Public, Value: 3},
	}
	now := 0.0
	for i := 0; i < 100; i++ { // grow every ring to its bound
		ip.Observe(now, batch)
		now++
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ip.Observe(now, batch)
		now++
	}); allocs != 0 {
		t.Fatalf("Observe of known peers allocates %v times per call, want 0", allocs)
	}
	if got := store.Value("peer/p2/load", 0); got != 2 {
		t.Fatalf("peer/p2/load = %v, want 2", got)
	}
}
