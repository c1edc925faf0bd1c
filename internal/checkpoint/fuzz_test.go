package checkpoint_test

import (
	"bytes"
	"runtime"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/experiments"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// payloadSeeds are payloads of the golden, codec, segment and lying-count
// tests' snapshots, at sizes a mutator can work with.
func payloadSeeds(f *testing.F) [][]byte {
	snapshot := func(cfg population.Config, ticks int) *population.Snapshot {
		e := population.New(cfg)
		e.Run(ticks)
		s, err := e.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	first := checkpoint.EncodePayload(snapshot(experiments.S2Config(4, 1, 1, nil), 1), nil)
	return [][]byte{
		checkpoint.EncodePayload(snapshot(experiments.S2Config(4, 1, 1, nil), 2),
			map[string]string{"workload": "s2", "id": "golden"}),
		first,
		otherPoint(f, first),
		checkpoint.EncodePayload(snapshot(checkpoint.CodecConfig(2, 1, 11), 9), nil),
		checkpoint.EncodePayload(checkpoint.Synthetic(3, 2, 4), map[string]string{"id": "multi"}),
		checkpoint.EncodePayload(&population.Snapshot{}, nil),
		checkpoint.LyingEntryCount(256),
	}
}

// otherPoint returns a copy of payload whose first one-point history — a
// last update t followed by the lists [t] and [v], which a model updated
// once holds without a ring — has v's sign flipped, so the point is no
// longer the model's own and a restore must build its ring.
func otherPoint(f *testing.F, payload []byte) []byte {
	p := bytes.Clone(payload)
	for i := 0; i+26 <= len(p); i++ {
		if p[i+8] == 1 && p[i+17] == 1 && bytes.Equal(p[i:i+8], p[i+9:i+17]) {
			p[i+25] ^= 0x80
			return p
		}
	}
	f.Fatal("no one-point history in the payload")
	return nil
}

// FuzzDecodePayload feeds arbitrary bytes to the payload decoder behind
// the checksum. No input may panic or allocate more than a small multiple
// of its length plus a constant; one that decodes must reach a fixed point
// after one encode (encode → decode → encode gives identical bytes), and
// its framed encoding must decode. Agent states are validated when they
// are restored, not when they are decoded, so a decoded snapshot shaped
// like the S2 seed's population is also restored into it: that gives an
// engine or an error, never a panic, inside the same allocation bound.
func FuzzDecodePayload(f *testing.F) {
	for _, seed := range payloadSeeds(f) {
		f.Add(seed)
	}
	pool := runner.New(1)
	f.Cleanup(pool.Close)
	s2 := experiments.S2Config(4, 1, 1, pool).Normalized()
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			s    *population.Snapshot
			meta map[string]string
			err  error
		)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, meta, err = checkpoint.DecodePayload(payload)
		if err == nil && s.Name == s2.Name && s.Agents == s2.Agents && s.Shards == s2.Shards && s.Seed == s2.Seed {
			_, _ = population.Restore(s2, s)
		}
		runtime.ReadMemStats(&after)
		if total, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+64<<10); total > limit {
			t.Fatalf("a %d-byte payload allocated %d bytes, want at most %d", len(payload), total, limit)
		}
		if err != nil {
			return
		}
		once := checkpoint.EncodePayload(s, meta)
		s2, meta2, err := checkpoint.DecodePayload(once)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if twice := checkpoint.EncodePayload(s2, meta2); !bytes.Equal(once, twice) {
			t.Fatal("encode → decode → encode changed the bytes")
		}
		if _, _, err := checkpoint.DecodeBytes(checkpoint.Frame(once)); err != nil {
			t.Fatalf("framed re-encoding does not decode: %v", err)
		}
	})
}
