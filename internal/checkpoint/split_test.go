package checkpoint_test

import (
	"bytes"
	"strings"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
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

// agentState is agent id's state as AppendState writes it.
func agentState(t *testing.T, eng *population.Engine, id int) []byte {
	t.Helper()
	var e codec.Encoder
	if err := eng.Agent(id).AppendState(&e); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// TestSplitLandsOnAgentBoundaries: decoding cuts the payload into one run
// per shard at the frame boundaries. On a real S2 population every run
// must be the exporting shard's run: its agents' states, as AppendState
// writes each, back to back.
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
		var states []byte
		for id := bounds[s]; id < bounds[s+1]; id++ {
			states = append(states, agentState(t, eng, id)...)
		}
		if !bytes.Equal(run, states) {
			t.Fatalf("shard %d: run of %d bytes is not its agents' %d bytes of state", s, len(run), len(states))
		}
	}
}

// TestSplitRejectsLyingStoreCount: a store entry count inside one agent's
// state that claims more entries than the run can hold decodes — the run's
// checksum is valid, and its bytes are read when it is restored — but
// Restore fails, naming the agent.
func TestSplitRejectsLyingStoreCount(t *testing.T) {
	eng, snap := s2Snapshot(t)
	const shard, id = 5, 43 // the fourth agent of shard 5
	bounds := population.Partition(snap.Agents, snap.Shards)
	var lying codec.Encoder
	for a := bounds[shard]; a < bounds[shard+1]; a++ {
		st := agentState(t, eng, a)
		if a != id {
			lying.Raw(st)
			continue
		}
		// Re-spell the fields before the entry count to find where it is.
		d := codec.NewDecoder(st)
		var pre codec.Encoder
		pre.Str(d.Str())       // name
		pre.Int(d.Int())       // steps
		pre.F64(d.F64())       // store: alpha
		pre.Int(d.Int())       // history bound
		pre.Varint(d.Varint()) // reads
		pre.Varint(d.Varint()) // writes
		var count codec.Encoder
		count.Uvarint(d.Uvarint())
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		lying.Raw(pre.Bytes())
		lying.Uvarint(1 << 40)
		lying.Raw(st[pre.Len()+count.Len():])
	}
	snap.Runs[shard] = lying.Bytes()
	b, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := checkpoint.DecodeBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	_, err = population.Restore(experiments.S2Config(64, 8, 3, nil), decoded)
	if err == nil || !strings.Contains(err.Error(), "agent 43:") || !strings.Contains(err.Error(), "count") {
		t.Fatalf("lying store entry count: Restore error %v, want a count error naming agent 43", err)
	}
}
