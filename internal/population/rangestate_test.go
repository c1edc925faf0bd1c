package population

import (
	"reflect"
	"strings"
	"testing"

	"sacs/internal/core"
)

// rangeTestSnapshot builds a stepped engine and returns its snapshot — the
// source material for the Range tests.
func rangeTestSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	cfg := tinyConfig(48)
	cfg.Shards = 6
	e := New(cfg)
	e.Run(5)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotRangeBoundaries: every boundary and degenerate shard range,
// against both validation and the extracted slice contents.
func TestSnapshotRangeBoundaries(t *testing.T) {
	snap := rangeTestSnapshot(t)
	bounds := Partition(snap.Agents, snap.Shards)

	valid := []struct{ lo, hi int }{
		{0, snap.Shards},               // the whole population
		{0, 1},                         // first shard alone
		{snap.Shards - 1, snap.Shards}, // last shard alone
		{2, 4},                         // interior range
	}
	for _, c := range valid {
		rs, err := snap.Range(c.lo, c.hi)
		if err != nil {
			t.Fatalf("Range(%d, %d): %v", c.lo, c.hi, err)
		}
		if rs.LoShard != c.lo || rs.HiShard != c.hi ||
			rs.LoAgent != bounds[c.lo] || rs.HiAgent != bounds[c.hi] {
			t.Fatalf("Range(%d, %d) covers shards [%d, %d) agents [%d, %d)",
				c.lo, c.hi, rs.LoShard, rs.HiShard, rs.LoAgent, rs.HiAgent)
		}
		if !reflect.DeepEqual(rs.ShardRNG, snap.ShardRNG[c.lo:c.hi]) ||
			!reflect.DeepEqual(rs.AgentRNG, snap.AgentRNG[bounds[c.lo]:bounds[c.hi]]) ||
			!reflect.DeepEqual(rs.Runs, snap.Runs[c.lo:c.hi]) {
			t.Fatalf("Range(%d, %d) slices disagree with the snapshot", c.lo, c.hi)
		}
	}

	invalid := []struct{ lo, hi int }{
		{-1, 2},                    // negative lo
		{3, 2},                     // inverted
		{2, 2},                     // empty
		{0, snap.Shards + 1},       // past the end
		{snap.Shards, snap.Shards}, // empty at the end
	}
	for _, c := range invalid {
		if _, err := snap.Range(c.lo, c.hi); err == nil ||
			!strings.Contains(err.Error(), "shard range") {
			t.Fatalf("Range(%d, %d) = %v, want shard-range error", c.lo, c.hi, err)
		}
	}
}

// TestSnapshotRangeInconsistent: a snapshot whose header and slices
// disagree is rejected before any slicing panics.
func TestSnapshotRangeInconsistent(t *testing.T) {
	snap := rangeTestSnapshot(t)
	snap.ShardRNG = snap.ShardRNG[:len(snap.ShardRNG)-1]
	if _, err := snap.Range(0, 2); err == nil ||
		!strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("Range on truncated snapshot: %v", err)
	}
}

// TestExportRangeSubset: a transport's ExportRange must hand out exactly
// the corresponding slice of its full export, and refuse ranges it does
// not own.
func TestExportRangeSubset(t *testing.T) {
	cfg := tinyConfig(48)
	cfg.Shards = 6
	cfg = cfg.Normalized()
	lt := NewLocalTransport(cfg, 0, cfg.Shards)
	for tick := 0; tick < 3; tick++ {
		if _, err := lt.Step(tick, make([][]core.Stimulus, cfg.Agents)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := lt.Export()
	if err != nil {
		t.Fatal(err)
	}
	bounds := Partition(cfg.Agents, cfg.Shards)
	part, err := lt.ExportRange(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part.ShardRNG, full.ShardRNG[1:4]) ||
		!reflect.DeepEqual(part.AgentRNG, full.AgentRNG[bounds[1]:bounds[4]]) ||
		!reflect.DeepEqual(part.Runs, full.Runs[1:4]) {
		t.Fatal("ExportRange disagrees with the corresponding slice of Export")
	}

	// A transport owning an interior range refuses exports outside it.
	sub := NewLocalTransport(cfg, 2, 5)
	if _, err := sub.ExportRange(0, 3); err == nil || !strings.Contains(err.Error(), "outside owned") {
		t.Fatalf("out-of-ownership export: %v", err)
	}
	if _, err := sub.ExportRange(4, 3); err == nil || !strings.Contains(err.Error(), "shard range") {
		t.Fatalf("inverted export range: %v", err)
	}
}
