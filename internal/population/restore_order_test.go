package population_test

import (
	"strings"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/experiments"
	"sacs/internal/population"
)

// swappedEntriesRun spells the run of eng's agents [lo, hi), each agent's
// state as AppendState writes it, with the first two knowledge-store
// entries of agent id swapped, and returns it with the name of the entry
// that now comes second, out of order.
func swappedEntriesRun(t *testing.T, eng *population.Engine, lo, hi, id int) ([]byte, string) {
	t.Helper()
	var run codec.Encoder
	var first string
	for i := lo; i < hi; i++ {
		var st codec.Encoder
		if err := eng.Agent(i).AppendState(&st); err != nil {
			t.Fatal(err)
		}
		if i != id {
			run.Raw(st.Bytes())
			continue
		}
		// Re-spell the state up to the end of its second entry: the
		// lengths re-spelled are where the entries start and end.
		d := codec.NewDecoder(st.Bytes())
		var pre codec.Encoder
		pre.Str(d.Str())       // agent name
		pre.Int(d.Int())       // steps
		pre.F64(d.F64())       // alpha
		pre.Int(d.Int())       // history length
		pre.Varint(d.Varint()) // reads
		pre.Varint(d.Varint()) // writes
		n := d.Uvarint()
		if n < 2 {
			t.Fatalf("agent %d's store holds %d entries, want at least 2", id, n)
		}
		pre.Uvarint(n)
		entry := func() string {
			name := d.Str()
			pre.Str(name)
			pre.Int(d.Int())   // scope
			pre.F64(d.F64())   // value
			pre.F64(d.F64())   // variance
			pre.Int(d.Int())   // updates
			pre.F64(d.F64())   // last update
			pre.F64s(d.F64s()) // history times
			pre.F64s(d.F64s()) // history values
			return name
		}
		a := pre.Len()
		first = entry()
		b := pre.Len()
		entry()
		c := pre.Len()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		b0 := st.Bytes()
		run.Raw(b0[:a])
		run.Raw(b0[b:c])
		run.Raw(b0[a:b])
		run.Raw(b0[c:])
	}
	return run.Bytes(), first
}

// TestRestoreRejectsOutOfOrderEntries: a checkpoint whose agent state lists
// two store entries out of name order still decodes — a run's bytes are
// read when it is restored — but Restore refuses it, naming the agent and
// the entry, instead of resuming an engine whose next snapshot would differ
// from the file it came from.
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
	run, entry := swappedEntriesRun(t, eng, bounds[1], bounds[2], id)
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
