package population_test

import (
	"strings"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/population"
)

// swappedEntriesRun returns run with the first two knowledge-store entries
// of its k-th agent state swapped, and the name of the entry that now comes
// second, out of order.
func swappedEntriesRun(t *testing.T, run []byte, k int) ([]byte, string) {
	t.Helper()
	d := codec.NewDecoder(run)
	for i := 0; i < k; i++ {
		core.SkipState(d)
	}
	d.StrBytes() // agent name
	d.Int()      // steps
	d.Skip(8)    // alpha
	d.Int()      // history length
	d.Varint()   // reads
	d.Varint()   // writes
	if n := d.Uvarint(); n < 2 {
		t.Fatalf("agent %d's store holds %d entries, want at least 2", k, n)
	}
	skipEntry := func() string {
		name := string(d.StrBytes())
		d.Int()
		d.Skip(16)
		d.Int()
		d.Skip(8)
		d.SkipF64s()
		d.SkipF64s()
		return name
	}
	a := d.Pos()
	first := skipEntry()
	b := d.Pos()
	skipEntry()
	c := d.Pos()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), run[:a]...)
	out = append(out, run[b:c]...)
	out = append(out, run[a:b]...)
	return append(out, run[c:]...), first
}

// TestRestoreRejectsOutOfOrderEntries: a checkpoint whose agent state lists
// two store entries out of name order still decodes — the file walk checks
// lengths only — but Restore refuses it, naming the agent and the entry,
// instead of resuming an engine whose next snapshot would differ from the
// file it came from.
func TestRestoreRejectsOutOfOrderEntries(t *testing.T) {
	const agents, shards = 64, 8
	eng := population.New(experiments.S2Config(agents, shards, 5, nil))
	eng.Run(12)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const id = 10 // shard 1, its third agent
	bounds := population.Partition(agents, shards)
	run, entry := swappedEntriesRun(t, snap.Runs[1], id-bounds[1])
	snap.Runs[1] = run
	b, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := checkpoint.DecodeBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	_, err = population.Restore(experiments.S2Config(agents, shards, 5, nil), decoded)
	if err == nil || !strings.Contains(err.Error(), "agent 10:") || !strings.Contains(err.Error(), `"`+entry+`"`) {
		t.Fatalf("Restore error = %v, want it to name agent 10 and entry %q", err, entry)
	}
}
