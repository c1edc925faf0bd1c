package checkpoint_test

import (
	"bytes"
	"errors"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/population"
)

// s2Snapshot is a stepped S2 population's snapshot and its engine.
func s2Snapshot(t *testing.T) (*population.Engine, *population.Snapshot) {
	t.Helper()
	eng := population.New(experiments.S2Config(64, 8, 3, nil))
	eng.Run(6)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return eng, snap
}

// TestSplitLandsOnAgentBoundaries: decoding cuts the payload's agent
// states into per-shard runs with a walk that reads lengths only. On a
// real S2 population every cut must land where the exporting shard's run
// ended, and every agent boundary the walk steps over must be where that
// agent's own state ends.
func TestSplitLandsOnAgentBoundaries(t *testing.T) {
	eng, snap := s2Snapshot(t)
	b, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := checkpoint.DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(snap.Runs) {
		t.Fatalf("decoded %d runs, exported %d", len(got.Runs), len(snap.Runs))
	}
	bounds := population.Partition(snap.Agents, snap.Shards)
	for s, run := range got.Runs {
		if !bytes.Equal(run, snap.Runs[s]) {
			t.Fatalf("shard %d: decoded run differs from the exported one", s)
		}
		d := codec.NewDecoder(run)
		for id := bounds[s]; id < bounds[s+1]; id++ {
			var e codec.Encoder
			if err := eng.Agent(id).AppendState(&e); err != nil {
				t.Fatal(err)
			}
			start := d.Pos()
			core.SkipState(d)
			if !bytes.Equal(d.Since(start), e.Bytes()) {
				t.Fatalf("agent %d: the walk stepped over %d bytes, its state is %d", id, d.Pos()-start, e.Len())
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}

// TestSplitRejectsLyingStoreCount: a store entry count inside one agent's
// state that claims more entries than the payload can hold fails the
// decode with ErrCorrupt, though the checksum is valid.
func TestSplitRejectsLyingStoreCount(t *testing.T) {
	_, snap := s2Snapshot(t)
	const shard, k = 5, 3 // the fourth agent of shard 5
	run := snap.Runs[shard]
	d := codec.NewDecoder(run)
	for i := 0; i < k; i++ {
		core.SkipState(d)
	}
	d.StrBytes()  // name
	d.Int()       // steps
	d.Skip(8)     // store: alpha
	d.Int()       // history bound
	d.Varint()    // reads
	d.Varint()    // writes
	at := d.Pos() // the entry count
	d.Uvarint()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var lying codec.Encoder
	lying.Raw(run[:at])
	lying.Uvarint(1 << 40)
	lying.Raw(run[d.Pos():])
	snap.Runs[shard] = lying.Bytes()
	b, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.DecodeBytes(b); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("lying store entry count: want ErrCorrupt, got %v", err)
	}
}
