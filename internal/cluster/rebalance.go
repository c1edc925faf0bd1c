package cluster

import (
	"sort"

	"sacs/internal/cloudsim"
)

// Move is one proposed migration: shards [Lo, Hi) from worker From to
// worker To. Transport.Rebalance validates From against the live owner map
// before executing, so a stale proposal fails loudly instead of draining
// the wrong worker.
type Move struct {
	Lo, Hi   int
	From, To int
}

// View is the read-only placement snapshot a CostRebalancer decides from:
// the shard→worker map, the coordinator's per-shard cost estimates (nanos,
// see Transport.ShardCosts), which worker slots are detached, and the slot
// count. All slices are copies — a policy may scribble on them.
type View struct {
	Owner   []int
	Costs   []float64
	Dead    []bool
	Workers int
}

// CostRebalancer balances per-worker summed step cost. It is pure policy:
// proposing moves has no effect until Transport.Rebalance executes them at
// a tick barrier, and a proposal is deterministic in its inputs (the
// placement loop may run under the engine's reproducibility contract).
//
// Its control law for *how many* workers should carry shards is an
// injected cloudsim.Autoscaler — the same laws the cloud simulation
// exercises, fed here with real measurements instead of synthetic
// arrivals: queued = total estimated step cost per worker (scaled to whole
// units), active = workers currently carrying shards. Shard placement
// across the chosen workers is then LPT — evacuate workers outside the
// target set onto the lightest member, then peel single shards from the
// heaviest onto the lightest until the max/min load ratio drops under
// Threshold.
//
// Shards owned by dead workers are never proposed (they need
// Transport.Assign from a snapshot, not a live migration), and dead
// workers are never destinations.
type CostRebalancer struct {
	// Scaler chooses the target number of shard-carrying workers, clamped
	// to [1, live workers]. Nil keeps the current carrier count.
	Scaler cloudsim.Autoscaler

	// Threshold is the max/min per-worker load ratio tolerated before
	// single-shard smoothing moves kick in. <= 1 means 1.5 (the default:
	// EWMA estimates jitter, and migrating on noise costs more than a
	// mildly uneven barrier).
	Threshold float64

	// MaxMoves caps one proposal batch. <= 0 means 16.
	MaxMoves int

	// ticks counts Propose calls — the autoscaler's clock.
	ticks int
}

func (r *CostRebalancer) threshold() float64 {
	if r.Threshold <= 1 {
		return 1.5
	}
	return r.Threshold
}

func (r *CostRebalancer) maxMoves() int {
	if r.MaxMoves <= 0 {
		return 16
	}
	return r.MaxMoves
}

// Propose returns the next batch of moves for v. The proposal is
// deterministic in the view (and the call count, which clocks the
// autoscaler).
func (r *CostRebalancer) Propose(v View) []Move {
	now := float64(r.ticks)
	r.ticks++
	load := make([]float64, v.Workers)
	count := make([]int, v.Workers)
	var total float64
	for s, wi := range v.Owner {
		c := v.Costs[s]
		if c <= 0 {
			c = 1 // unmeasured shards still occupy a slot
		}
		load[wi] += c
		count[wi]++
		total += c
	}
	var live []int
	carriers := 0
	for wi := 0; wi < v.Workers; wi++ {
		if v.Dead[wi] {
			continue
		}
		live = append(live, wi)
		if count[wi] > 0 {
			carriers++
		}
	}
	if len(live) == 0 {
		return nil
	}

	// How many workers should carry shards? Feed the autoscaler the mean
	// per-carrier load as "arrivals" and the total load (in mean-shard
	// units, so thresholds read as shards-per-worker) as the queue.
	target := carriers
	if r.Scaler != nil {
		meanShard := total / float64(len(v.Owner))
		queued := int(total / meanShard) // == shard count, weighted view kept for clarity
		target = r.Scaler.Desired(now, total/float64(max(carriers, 1)), queued, carriers)
	}
	if target < 1 {
		target = 1
	}
	if target > len(live) {
		target = len(live)
	}

	// The target set: the `target` most-loaded live workers (index order
	// breaks ties), so growing folds in empty workers and shrinking
	// evacuates the lightest.
	sorted := append([]int(nil), live...)
	sort.SliceStable(sorted, func(i, j int) bool { return load[sorted[i]] > load[sorted[j]] })
	targetSet := make(map[int]bool, target)
	for _, wi := range sorted[:target] {
		targetSet[wi] = true
	}

	// Work on copies the greedy passes can mutate.
	owner := append([]int(nil), v.Owner...)
	var moves []Move
	lightest := func() int {
		best := -1
		for wi := range targetSet {
			if best == -1 || load[wi] < load[best] || (load[wi] == load[best] && wi < best) {
				best = wi
			}
		}
		return best
	}
	propose := func(lo, hi, from, to int) {
		moves = append(moves, Move{Lo: lo, Hi: hi, From: from, To: to})
		var c float64
		for s := lo; s < hi; s++ {
			cs := v.Costs[s]
			if cs <= 0 {
				cs = 1
			}
			c += cs
			owner[s] = to
		}
		load[from] -= c
		load[to] += c
		count[from] -= hi - lo
		count[to] += hi - lo
	}

	// Pass 1: evacuate live workers outside the target set, one contiguous
	// run at a time onto the then-lightest target.
	for s := 0; s < len(owner) && len(moves) < r.maxMoves(); {
		from := owner[s]
		if v.Dead[from] || targetSet[from] {
			s++
			continue
		}
		hi := s + 1
		for hi < len(owner) && owner[hi] == from {
			hi++
		}
		propose(s, hi, from, lightest())
		s = hi
	}

	// Pass 2: smooth — peel single shards from the heaviest target onto
	// the lightest while the imbalance exceeds the threshold and the move
	// strictly improves it.
	for len(moves) < r.maxMoves() {
		hi, lo := -1, -1
		for wi := range targetSet {
			if hi == -1 || load[wi] > load[hi] || (load[wi] == load[hi] && wi < hi) {
				hi = wi
			}
			if lo == -1 || load[wi] < load[lo] || (load[wi] == load[lo] && wi < lo) {
				lo = wi
			}
		}
		if hi == lo || count[hi] <= 1 || load[hi] <= r.threshold()*load[lo] {
			break
		}
		// The heavy worker's cheapest shard whose move strictly lowers the
		// maximum (a shard bigger than the gap would just swap roles).
		best, bestCost := -1, 0.0
		for s, wi := range owner {
			if wi != hi {
				continue
			}
			c := v.Costs[s]
			if c <= 0 {
				c = 1
			}
			if load[lo]+c >= load[hi] {
				continue
			}
			if best == -1 || c < bestCost {
				best, bestCost = s, c
			}
		}
		if best == -1 {
			break
		}
		propose(best, best+1, hi, lo)
	}
	return moves
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
