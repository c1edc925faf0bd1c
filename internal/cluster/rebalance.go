package cluster

// Move is one migration Transport.Rebalance executes: shards [Lo, Hi) from
// worker From to worker To.
type Move struct {
	Lo, Hi   int
	From, To int
}

// view is the placement snapshot the rebalance rule decides from: the
// shard→worker map, the coordinator's per-shard cost estimates (nanos, see
// Transport.ShardCosts) and which worker slots are detached (one entry per
// slot). propose only reads it.
type view struct {
	Owner []int
	Costs []float64
	Dead  []bool
}

// The rebalance rule's constants.
const (
	// shardsPerCarrier: past this many shards per shard-carrying worker,
	// the rule folds one more live worker into the placement.
	shardsPerCarrier = 4
	// loadRatio is the max/min per-worker load tolerated before
	// single-shard smoothing moves kick in (EWMA estimates jitter, and
	// migrating on noise costs more than a mildly uneven barrier).
	loadRatio = 1.5
	// maxMoves caps one proposal batch.
	maxMoves = 16
)

// shardCost is shard s's placement weight: its cost estimate, or 1 when it
// has none yet (an unmeasured shard still occupies a slot).
func shardCost(costs []float64, s int) float64 {
	if c := costs[s]; c > 0 {
		return c
	}
	return 1
}

// propose returns the next batch of moves for v. It is one deterministic
// rule over measured per-shard costs:
//
//  1. carriers are the live workers that own shards; when there are more
//     than shardsPerCarrier shards per carrier, one more live worker
//     joins them (the lowest-index empty one). With no live worker there
//     is nothing to do.
//  2. peel single shards from the heaviest member onto the lightest while
//     the heaviest carries more than loadRatio times the lightest and the
//     move strictly lowers the heaviest, up to maxMoves moves.
//
// Shards owned by dead workers are never proposed (they need
// Transport.Assign from a snapshot, not a live migration), and dead
// workers are never destinations.
func propose(v view) []Move {
	load := make([]float64, len(v.Dead))
	count := make([]int, len(v.Dead))
	for s, wi := range v.Owner {
		load[wi] += shardCost(v.Costs, s)
		count[wi]++
	}
	carriers, empty := 0, -1
	for wi, dead := range v.Dead {
		switch {
		case dead:
		case count[wi] > 0:
			carriers++
		case empty == -1:
			empty = wi
		}
	}
	if len(v.Owner) <= shardsPerCarrier*carriers {
		empty = -1 // no growth: only the carriers take part
	}
	owner := append([]int(nil), v.Owner...)
	var moves []Move
	for len(moves) < maxMoves {
		hi, lo := -1, -1
		for wi, dead := range v.Dead {
			if dead || (count[wi] == 0 && wi != empty) {
				continue // not a member: dead, or empty and not joining
			}
			if hi == -1 || load[wi] > load[hi] {
				hi = wi
			}
			if lo == -1 || load[wi] < load[lo] {
				lo = wi
			}
		}
		if hi == lo || count[hi] <= 1 || load[hi] <= loadRatio*load[lo] {
			break
		}
		// The heavy worker's cheapest shard whose move strictly lowers the
		// maximum (a shard bigger than the gap would just swap roles).
		best, bestCost := -1, 0.0
		for s, wi := range owner {
			if wi != hi {
				continue
			}
			if c := shardCost(v.Costs, s); load[lo]+c < load[hi] && (best == -1 || c < bestCost) {
				best, bestCost = s, c
			}
		}
		if best == -1 {
			break
		}
		moves = append(moves, Move{Lo: best, Hi: best + 1, From: hi, To: lo})
		owner[best] = lo
		load[hi] -= bestCost
		load[lo] += bestCost
		count[hi]--
		count[lo]++
	}
	return moves
}
