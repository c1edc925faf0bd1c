package population

import "slices"

// This file is the tick's dispatch-order plane: a per-shard cost model fed
// by observed StepNanos and the LPT plan that turns those costs into a
// dispatch order. Everything here is observation-driven and
// observation-only — the order shards *execute* in never changes the order
// their exchanges *merge* in (shard index, always), so any dispatch order,
// any cost history and any steal interleaving produce byte-identical
// ticks. Cost state is consequently excluded from snapshots, like all
// metrics.

// costAlpha is the EWMA smoothing factor for the per-shard cost estimate.
// 0.25 follows the knowledge layer's trend smoothing: heavy enough that a
// persistent skew reorders dispatch within a few ticks, light enough that
// one noisy tick does not thrash the order.
const costAlpha = 0.25

// CostModel tracks, per shard, an EWMA estimate of the shard's step cost
// (nanoseconds). Writers are the shard executors (each shard's slot is
// written by exactly one executor per tick) and readers run between ticks
// on the dispatching goroutine, so the model needs no locking.
type CostModel struct {
	est []float64 // EWMA of observed StepNanos; 0 = never observed
}

// NewCostModel returns a model covering shards shards with no history.
func NewCostModel(shards int) *CostModel {
	return &CostModel{est: make([]float64, shards)}
}

// Shards reports how many shards the model covers.
func (c *CostModel) Shards() int { return len(c.est) }

// Observe folds one measured step time for shard s into the estimate.
func (c *CostModel) Observe(s int, nanos int64) {
	if c.est[s] == 0 {
		c.est[s] = float64(nanos)
	} else {
		c.est[s] += costAlpha * (float64(nanos) - c.est[s])
	}
}

// Estimate returns the current cost estimate for shard s in nanoseconds
// (0 until the shard has been observed at least once).
func (c *CostModel) Estimate(s int) float64 { return c.est[s] }

// EstimatesInto appends the estimates of shards [lo, hi) to dst and
// returns it — the Plan input for a transport dispatching that range.
func (c *CostModel) EstimatesInto(dst []float64, lo, hi int) []float64 {
	return append(dst, c.est[lo:hi]...)
}

// lptPlan writes the tick's dispatch order into order: a permutation of
// [0, len(order)) by descending cost, where cost[i] is the cost model's
// estimate (nanoseconds) for the i-th shard of the dispatch set, 0 when
// that shard has never been observed. Ties break toward the lower index,
// keeping the plan deterministic in cost. This is longest-processing-
// time-first list scheduling: the tick's critical path starts first and
// cheap shards fill the gaps, bounded at 4/3 of optimal makespan. Before
// any costs have been observed every estimate is 0 and the plan is index
// order. The barrier merge is shard-index order regardless of the plan,
// so the plan affects wall time and nothing else; see DESIGN.md "Shard
// scheduling".
func lptPlan(order []int, cost []float64) {
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case cost[a] > cost[b]:
			return -1
		case cost[a] < cost[b]:
			return 1
		}
		return 0
	})
}
