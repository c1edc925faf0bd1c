package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/experiments"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// payloadSeeds are payloads of the golden, codec, segment and lying-count
// tests' snapshots, at sizes a mutator can work with, and two whose run
// frame is damaged: a bad checksum, and a length past the payload's end.
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
	firstSnap := snapshot(experiments.S2Config(4, 1, 1, nil), 1)
	first := checkpoint.EncodePayload(firstSnap, nil)
	badCRC := bytes.Clone(first)
	badCRC[len(badCRC)-1] ^= 0x01 // the run's frame is the last
	run := firstSnap.Runs[0]
	var long codec.Encoder // the run's frame, its length past the end
	long.Raw(first[:len(first)-len(run)-4-uvarintLen(len(run))])
	long.Uvarint(uint64(len(run)) + 1<<20)
	long.Raw(first[len(first)-len(run)-4:])
	return [][]byte{
		checkpoint.EncodePayload(snapshot(experiments.S2Config(4, 1, 1, nil), 2),
			map[string]string{"workload": "s2", "id": "golden"}),
		first,
		otherPoint(f, firstSnap),
		checkpoint.EncodePayload(snapshot(checkpoint.CodecConfig(2, 1, 11), 9), nil),
		checkpoint.EncodePayload(checkpoint.Synthetic(3, 2, 4), map[string]string{"id": "multi"}),
		checkpoint.EncodePayload(&population.Snapshot{}, nil),
		checkpoint.LyingEntryCount(256),
		badCRC,
		long.Bytes(),
	}
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// otherPoint returns the payload of snap, an S2 population's, with its
// first model updated once — whose history is its own and so is not
// spelled: an update count of one, a last update t and two empty lists —
// spelled as the one point (t, -value) instead, which no model updated
// once holds without a ring, so a restore must build one. The seed is
// checked: it restores into S2, and the restored engine writes it again.
func otherPoint(f *testing.F, snap *population.Snapshot) []byte {
	run := snap.Runs[0]
	for i := 16; i+11 <= len(run); i++ {
		if run[i] != 2 || run[i+9] != 0 || run[i+10] != 0 {
			continue
		}
		var e codec.Encoder
		e.Raw(run[:i+9])
		e.Uvarint(1)
		e.Raw(run[i+1 : i+9]) // t
		e.Uvarint(1)
		e.F64(-math.Float64frombits(binary.LittleEndian.Uint64(run[i-16:])))
		e.Raw(run[i+11:])
		c := *snap
		c.Runs = [][]byte{e.Bytes()}
		p := checkpoint.EncodePayload(&c, nil)
		r, err := population.Restore(experiments.S2Config(4, 1, 1, nil), &c)
		if err != nil {
			continue // not an entry's update count
		}
		if back, err := r.Snapshot(); err == nil && bytes.Equal(checkpoint.EncodePayload(back, nil), p) {
			return p
		}
	}
	f.Fatal("no model updated once in the payload")
	return nil
}

// resealed returns payload with the checksum of every frame found from its
// start made valid, so that a mutation reaches the decoder behind the
// checksums; the walk stops at the first length that overruns the bytes.
func resealed(payload []byte) []byte {
	p := bytes.Clone(payload)
	for i := 0; i < len(p); {
		n, k := binary.Uvarint(p[i:])
		if k <= 0 || n > uint64(len(p)-i-k) || len(p)-i-k-int(n) < 4 {
			break
		}
		end := i + k + int(n)
		binary.LittleEndian.PutUint32(p[end:], crc32.Checksum(p[i+k:end], crc32.MakeTable(crc32.Castagnoli)))
		i = end + 4
	}
	return p
}

// FuzzDecodePayload feeds arbitrary bytes to the payload decoder, as they
// are and with every frame's checksum made valid (resealed), so mutations
// reach both the checksums and the bytes behind them. No input may panic
// or allocate more than a small multiple of its length plus a constant;
// one that decodes must reach a fixed point after one encode (encode →
// decode → encode gives identical bytes), and its encoding behind a header
// must decode. Agent states are validated when they are restored, not when
// they are decoded, so a decoded snapshot shaped like the S2 seed's
// population is also restored into it: that gives an engine or an error,
// never a panic, inside the same allocation bound.
func FuzzDecodePayload(f *testing.F) {
	for _, seed := range payloadSeeds(f) {
		f.Add(seed)
	}
	pool := runner.New(1)
	f.Cleanup(pool.Close)
	s2 := experiments.S2Config(4, 1, 1, pool).Normalized()
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, payload := range [][]byte{input, resealed(input)} {
			checkPayload(t, s2, payload)
		}
	})
}

// checkPayload is one FuzzDecodePayload check of one payload.
func checkPayload(t *testing.T, s2 population.Config, payload []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, meta, err := checkpoint.DecodePayload(payload)
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
	back, meta2, err := checkpoint.DecodePayload(once)
	if err != nil {
		t.Fatalf("re-encoded payload does not decode: %v", err)
	}
	if twice := checkpoint.EncodePayload(back, meta2); !bytes.Equal(once, twice) {
		t.Fatal("encode → decode → encode changed the bytes")
	}
	if _, _, err := checkpoint.DecodeBytes(checkpoint.WithHeader(once)); err != nil {
		t.Fatalf("re-encoding behind a header does not decode: %v", err)
	}
}
