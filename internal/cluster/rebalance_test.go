package cluster

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sacs/internal/population"
)

// applyMoves replays a proposal onto a copied owner map, failing on any
// internally inconsistent move (the same check Transport.Rebalance makes).
func applyMoves(t *testing.T, v view, moves []Move) []int {
	t.Helper()
	owner := append([]int(nil), v.Owner...)
	for _, m := range moves {
		if m.Lo < 0 || m.Hi > len(owner) || m.Lo >= m.Hi {
			t.Fatalf("move %+v out of range", m)
		}
		if v.Dead[m.To] {
			t.Fatalf("move %+v targets a dead worker", m)
		}
		for s := m.Lo; s < m.Hi; s++ {
			if owner[s] != m.From {
				t.Fatalf("move %+v: shard %d owned by %d", m, s, owner[s])
			}
			owner[s] = m.To
		}
	}
	return owner
}

func loadsOf(owner []int, costs []float64, workers int) []float64 {
	loads := make([]float64, workers)
	for s, wi := range owner {
		c := costs[s]
		if c <= 0 {
			c = 1
		}
		loads[wi] += c
	}
	return loads
}

// TestCostRebalancerSmoothsSkew: a heavily skewed placement on two
// carriers (no empty worker to grow onto) is smoothed under the load ratio
// by single-shard moves, and the proposal is deterministic.
func TestCostRebalancerSmoothsSkew(t *testing.T) {
	v := view{
		// Worker 0 owns six shards, worker 1 two; uniform costs.
		Owner: []int{0, 0, 0, 0, 0, 0, 1, 1},
		Costs: []float64{100, 100, 100, 100, 100, 100, 100, 100},
		Dead:  []bool{false, false},
	}
	moves := propose(v)
	if len(moves) == 0 {
		t.Fatal("3x skew over threshold 1.5 proposed no moves")
	}
	owner := applyMoves(t, v, moves)
	loads := loadsOf(owner, v.Costs, len(v.Dead))
	if loads[0] > 1.5*loads[1] || loads[1] > 1.5*loads[0] {
		t.Fatalf("loads %v still exceed threshold after rebalance", loads)
	}
	again := propose(v)
	if len(again) != len(moves) {
		t.Fatalf("proposal not deterministic: %d vs %d moves", len(moves), len(again))
	}
	for i := range moves {
		if moves[i] != again[i] {
			t.Fatalf("proposal not deterministic at move %d: %+v vs %+v", i, moves[i], again[i])
		}
	}
}

// TestCostRebalancerBalancedProposesNothing: a placement inside the load
// ratio is left alone — EWMA jitter must not cause migration churn.
func TestCostRebalancerBalancedProposesNothing(t *testing.T) {
	v := view{
		Owner: []int{0, 0, 0, 0, 1, 1, 1, 1},
		Costs: []float64{100, 110, 90, 105, 95, 100, 100, 108},
		Dead:  []bool{false, false},
	}
	if moves := propose(v); len(moves) != 0 {
		t.Fatalf("balanced placement proposed %+v", moves)
	}
}

// TestCostRebalancerGrowsViaAutoscaler: 8 shards per carrier is past the
// rule's 4, so the admitted-but-empty worker joins the carriers and the
// smoothing moves land there.
func TestCostRebalancerGrowsViaAutoscaler(t *testing.T) {
	owner := make([]int, 16)
	costs := make([]float64, 16)
	for s := range owner {
		owner[s] = s / 8 // workers 0 and 1 carry everything
		costs[s] = 50
	}
	v := view{Owner: owner, Costs: costs, Dead: []bool{false, false, false}}
	moves := propose(v)
	if len(moves) == 0 {
		t.Fatal("overloaded carriers proposed no growth moves")
	}
	grew := false
	for _, m := range moves {
		if m.To == 2 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no move targets the empty worker: %+v", moves)
	}
	final := applyMoves(t, v, moves)
	loads := loadsOf(final, costs, 3)
	if loads[2] == 0 {
		t.Fatalf("worker 2 still empty after growth: %v", loads)
	}

	// At exactly 4 shards per carrier the rule keeps the carriers it has:
	// a 2x load skew is smoothed between them alone.
	v.Owner = []int{0, 0, 0, 0, 1, 1, 1, 1}
	v.Costs = []float64{100, 100, 100, 100, 50, 50, 50, 50}
	moves = propose(v)
	if len(moves) == 0 {
		t.Fatal("2x skew between two carriers proposed no moves")
	}
	for _, m := range moves {
		if m.To == 2 {
			t.Fatalf("4 shards per carrier grew onto the empty worker: %+v", m)
		}
	}
}

// TestRebalanceGrowsPastFourShardsPerCarrier: 13 shards on 3 carriers is
// past 4 per carrier whatever the costs, so a move must land on the empty
// worker. The costs are ones for which total/(total/13) truncates to 12 in
// float64 — a shard count derived that way read exactly 4 per carrier and
// grew nothing. (9 shards on 2 carriers cannot show it: x/(x/9) never
// rounds below 9.)
func TestRebalanceGrowsPastFourShardsPerCarrier(t *testing.T) {
	const shards = 13
	rng := rand.New(rand.NewSource(1))
	costs := make([]float64, shards)
	for {
		var total float64
		for s := range costs {
			costs[s] = 1e5 + rng.Float64()*1e6
			total += costs[s]
		}
		if int(total/(total/shards)) == shards-1 {
			break
		}
	}
	v := view{
		Owner: []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2},
		Costs: costs,
		Dead:  []bool{false, false, false, false},
	}
	moves := propose(v)
	landed := false
	for _, m := range moves {
		landed = landed || m.To == 3
	}
	if !landed {
		t.Fatalf("costs %v: no move onto the empty worker: %+v", costs, moves)
	}
	applyMoves(t, v, moves)
}

// TestCostRebalancerIgnoresDeadWorkers: orphaned shards (dead owner) are
// never proposed — they need Assign, not Migrate — and dead workers are
// never destinations.
func TestCostRebalancerIgnoresDeadWorkers(t *testing.T) {
	v := view{
		Owner: []int{0, 0, 0, 0, 0, 0, 1, 1},
		Costs: []float64{100, 100, 100, 100, 100, 100, 100, 100},
		Dead:  []bool{false, true},
	}
	for _, m := range propose(v) {
		if m.From == 1 || m.To == 1 {
			t.Fatalf("move %+v touches the dead worker", m)
		}
	}
	// All workers dead: nothing to do, no panic.
	v.Dead = []bool{true, true}
	if moves := propose(v); len(moves) != 0 {
		t.Fatalf("all-dead view proposed %+v", moves)
	}
}

// TestCostRebalancerRespectsMaxMoves: a pathological skew still yields a
// bounded batch of exactly maxMoves moves.
func TestCostRebalancerRespectsMaxMoves(t *testing.T) {
	owner := make([]int, 64)
	costs := make([]float64, 64)
	for s := range owner {
		costs[s] = 10
	}
	v := view{Owner: owner, Costs: costs, Dead: []bool{false, false}}
	if moves := propose(v); len(moves) != maxMoves {
		t.Fatalf("%d moves, want the batch cap %d", len(moves), maxMoves)
	}
}

// TestRebalanceEndToEndByteIdentical: the full loop — run, admit an empty
// worker, Rebalance with the cluster's placement rule, keep running — must
// execute real migrations and stay byte-identical to the uninterrupted
// single-process engine.
func TestRebalanceEndToEndByteIdentical(t *testing.T) {
	const shards = 2 * tShards
	ref := population.New(testBuild(tAgents, shards, tSeed, nil))
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	spec := testSpec("p")
	spec.Shards = shards
	tr, err := cl.NewTransport(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, shards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tickBoth(t, i, ref, eng)
	}

	lateAddrs, _ := startWorkers(t, 1)
	wi, err := cl.AddWorker(lateAddrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AdmitWorker(wi); err != nil {
		t.Fatal(err)
	}
	// 16 shards on 2 carriers = 8 per carrier, past the rule's 4: the
	// placement grows onto the new worker.
	moves, err := tr.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if len(moves) == 0 {
		t.Fatal("rebalance executed no moves")
	}
	landed := false
	for _, wiOwner := range tr.Owner() {
		if wiOwner == wi {
			landed = true
		}
	}
	if !landed {
		t.Fatalf("no shard landed on the admitted worker; owner map %v after %+v", tr.Owner(), moves)
	}

	for i := 10; i < 20; i++ {
		tickBoth(t, i, ref, eng)
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("run diverged across a live rebalance")
	}
}
