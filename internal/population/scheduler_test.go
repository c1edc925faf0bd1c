package population

import (
	"fmt"
	"reflect"
	"testing"
)

// Seed overwrites the estimates of shards [lo, lo+len(costs)) with a
// prior. Non-positive entries leave the existing estimate alone.
func (c *CostModel) Seed(lo int, costs []float64) {
	for i, v := range costs {
		if v > 0 {
			c.est[lo+i] = v
		}
	}
}

// SeedCosts installs a cost-estimate prior for the owned shards — costs
// holds one value (nanoseconds; non-positive = no prior) per owned shard,
// in shard order. The skew suite uses it to make LPT dispatch a chosen
// permutation.
func (t *LocalTransport) SeedCosts(costs []float64) error {
	if len(costs) != len(t.owned) {
		return fmt.Errorf("population: %d cost priors for %d owned shards", len(costs), len(t.owned))
	}
	for i, s := range t.owned {
		t.costs.Seed(s, costs[i:i+1])
	}
	return nil
}

func TestLPTPlanDescendingStable(t *testing.T) {
	order := make([]int, 5)
	lptPlan(order, []float64{10, 50, 10, 90, 50})
	// Descending cost; equal costs keep index order (3, then the 50s in
	// index order, then the 10s in index order).
	if want := []int{3, 1, 4, 0, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("LPT plan = %v, want %v", order, want)
	}
	// All-zero costs (nothing observed yet) degenerate to index order.
	lptPlan(order, make([]float64, 5))
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("LPT plan over zero costs = %v, want index order", order)
	}
}

func TestCostModelEWMA(t *testing.T) {
	c := NewCostModel(2)
	if c.Shards() != 2 || c.Estimate(0) != 0 {
		t.Fatal("fresh model must report zero estimates")
	}
	// First observation seeds the estimate directly; later ones smooth.
	c.Observe(0, 1000)
	if c.Estimate(0) != 1000 {
		t.Fatalf("first observation: estimate = %v, want 1000", c.Estimate(0))
	}
	c.Observe(0, 2000)
	if want := 1000 + costAlpha*1000; c.Estimate(0) != want {
		t.Fatalf("EWMA after 2000: estimate = %v, want %v", c.Estimate(0), want)
	}
	if c.Estimate(1) != 0 {
		t.Fatal("observing shard 0 must not touch shard 1")
	}
}

func TestCostModelSeedAndEstimatesInto(t *testing.T) {
	c := NewCostModel(4)
	c.Observe(2, 500)
	// Non-positive prior entries must leave existing estimates alone.
	c.Seed(1, []float64{7000, 0, 9000})
	for s, want := range []float64{0, 7000, 500, 9000} {
		if c.Estimate(s) != want {
			t.Fatalf("after seed: estimate(%d) = %v, want %v", s, c.Estimate(s), want)
		}
	}
	got := c.EstimatesInto([]float64{-1}, 1, 3)
	if want := []float64{-1, 7000, 500}; !reflect.DeepEqual(got, want) {
		t.Fatalf("EstimatesInto = %v, want %v", got, want)
	}
}

func TestValidateShardRange(t *testing.T) {
	for _, tc := range []struct {
		lo, hi, shards int
		ok             bool
	}{
		{0, 4, 4, true},
		{1, 3, 4, true},
		{3, 4, 4, true},
		{0, 0, 4, false}, // empty
		{2, 2, 4, false}, // empty
		{3, 2, 4, false}, // inverted
		{-1, 2, 4, false},
		{0, 5, 4, false}, // past the population
		{4, 5, 4, false},
	} {
		err := ValidateShardRange(tc.lo, tc.hi, tc.shards)
		if (err == nil) != tc.ok {
			t.Errorf("ValidateShardRange(%d, %d, %d) = %v, want ok=%v",
				tc.lo, tc.hi, tc.shards, err, tc.ok)
		}
	}
}

// TestRangeValidationRoutesThroughHelper pins the single-authority
// property: the transport constructor and Snapshot.Range reject a bad
// range with ValidateShardRange's message, not their own re-derivation.
func TestRangeValidationRoutesThroughHelper(t *testing.T) {
	want := ValidateShardRange(3, 2, 4).Error()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewLocalTransport accepted an inverted range")
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("transport panic = %v, want ValidateShardRange's message %q", r, want)
		}
	}()
	cfg := tinyConfig(8)
	cfg.Shards = 4
	NewLocalTransport(cfg.Normalized(), 3, 2)
}
