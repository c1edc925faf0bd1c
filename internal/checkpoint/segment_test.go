package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/population"
)

// syntheticAgent spells one agent's state — one store entry with
// hist-point histories, no optional parts — so the payload size is set
// directly rather than by running a population.
func syntheticAgent(e *codec.Encoder, id, hist int) {
	e.Str(fmt.Sprintf("s%05d", id))
	e.Int(id) // steps
	e.F64(0.25)
	e.Int(hist)
	e.Varint(0) // reads
	e.Varint(0) // writes
	e.Uvarint(1)
	e.Str("stim/load")
	e.Int(0)
	e.F64(float64(id))
	e.F64(0)
	e.Int(hist)
	e.F64(0)
	ht, hv := make([]float64, hist), make([]float64, hist)
	for i := range ht {
		ht[i], hv[i] = float64(i), float64(id*hist+i)/3
	}
	e.F64s(ht)
	e.F64s(hv)
	e.Bool(false) // no goal switcher
	e.F64(0)
	e.F64(0)
	e.Bool(false) // no predictors
	e.Bool(false) // no meta monitor
}

// syntheticSnapshot builds a snapshot of synthetic agents over shards
// runs.
func syntheticSnapshot(agents, shards, hist int) *population.Snapshot {
	s := &population.Snapshot{
		Name: "synthetic", Agents: agents, Shards: shards, Seed: 7, Tick: 3,
		ShardRNG: make([]uint64, shards),
		AgentRNG: make([]uint64, agents),
		Mail:     make([][]core.Stimulus, agents),
		Runs:     make([][]byte, shards),
	}
	bounds := population.Partition(agents, shards)
	for sh := range s.Runs {
		s.ShardRNG[sh] = 99 + uint64(sh)
		var e codec.Encoder
		for id := bounds[sh]; id < bounds[sh+1]; id++ {
			s.AgentRNG[id] = uint64(id) * 0x9E3779B97F4A7C15
			syntheticAgent(&e, id, hist)
		}
		s.Runs[sh] = e.Bytes()
	}
	return s
}

// framed spells segs as consecutive frames.
func framed(segs ...[]byte) []byte {
	var b bytes.Buffer
	f := framer{w: &b}
	for _, seg := range segs {
		if err := f.frame(seg); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// multiSegment returns a synthetic snapshot whose payload spans at least
// three frames — the encoded head and one run per shard — with its
// encoding and the frames' contents.
func multiSegment(t *testing.T) (*population.Snapshot, []byte, [][]byte) {
	t.Helper()
	snap := syntheticSnapshot(256, 4, 1024) // ~16 KiB per agent, ~4 MiB in all
	head := codec.NewEncoder()
	appendHead(head, snap, map[string]string{"id": "multi"})
	segs := append([][]byte{head.Bytes()}, snap.Runs...)
	n := len(framed(segs...))
	if len(segs) < 3 {
		t.Fatalf("payload of %d bytes spans %d frames, want at least 3", n, len(segs))
	}
	b, err := EncodeBytes(snap, map[string]string{"id": "multi"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(b) != headerLen+n || cap(b) != len(b) {
		t.Fatalf("EncodeBytes: len %d cap %d, want exactly %d", len(b), cap(b), headerLen+n)
	}
	return snap, b, segs
}

func TestMultiSegmentRoundTrip(t *testing.T) {
	snap, b, segs := multiSegment(t)
	if !bytes.Equal(b[headerLen:], framed(segs...)) {
		t.Fatal("encoded payload is not its segments' frames")
	}
	var streamed bytes.Buffer
	if err := Encode(&streamed, snap, map[string]string{"id": "multi"}); err != nil {
		t.Fatalf("encode to writer: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), b) {
		t.Fatal("Encode and EncodeBytes produced different bytes")
	}
	got, meta, err := DecodeBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, snap) || meta["id"] != "multi" {
		t.Fatal("decoded multi-segment snapshot differs from original")
	}
	again, err := EncodeBytes(got, meta)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("re-encoding a decoded multi-segment snapshot produced different bytes")
	}
}

func TestDecodeCorruptSecondSegment(t *testing.T) {
	_, b, segs := multiSegment(t)
	flip := append([]byte(nil), b...)
	flip[headerLen+len(framed(segs[0]))+len(segs[1])/2] ^= 0x08
	if _, _, err := DecodeBytes(flip); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "shard 0 run") {
		t.Fatalf("byte flipped in the second segment, shard 0's run: want ErrCorrupt naming shard 0, got %v", err)
	}
}

// TestFlippedRunNamesShard: one byte flipped inside shard k's run fails
// with ErrCorrupt naming shard k, in a file read through Read and in a
// wire range state read through DecodeRange, whose shards are numbered
// in the population, not in the range.
func TestFlippedRunNamesShard(t *testing.T) {
	snap, b, _ := multiSegment(t)
	dir := t.TempDir()
	flipped := func(enc, run []byte) []byte {
		i := bytes.Index(enc, run)
		if i < 0 {
			t.Fatal("run not found in its encoding")
		}
		c := bytes.Clone(enc)
		c[i+len(run)/2] ^= 0x01
		return c
	}
	for k, run := range snap.Runs {
		want := fmt.Sprintf("shard %d run", k)
		path := filepath.Join(dir, FileName("flip", k))
		if err := os.WriteFile(path, flipped(b, run), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("file with shard %d's run flipped: want ErrCorrupt naming it, got %v", k, err)
		}
	}
	rs, err := snap.Range(1, snap.Shards)
	if err != nil {
		t.Fatal(err)
	}
	var e codec.Encoder
	AppendRange(&e, rs)
	bounds := population.Partition(snap.Agents, snap.Shards)
	d := codec.NewDecoder(e.Bytes())
	if DecodeRange(d, bounds); d.Finish() != nil {
		t.Fatalf("intact range state: %v", d.Finish())
	}
	for i, run := range rs.Runs {
		k := rs.LoShard + i
		d = codec.NewDecoder(flipped(e.Bytes(), run))
		DecodeRange(d, bounds)
		if err := d.Err(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d run", k)) {
			t.Errorf("range state with shard %d's run flipped: want ErrCorrupt naming it, got %v", k, err)
		}
	}
}

// allocated reports the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadPayloadAllocationBounded(t *testing.T) {
	const chunk = 4 << 20
	n := 3*chunk - 12345 // three read chunks' worth
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i * 31)
	}
	var got []byte
	var err error
	total := allocated(func() { got, err = codec.ReadN(bytes.NewReader(body), uint64(n), false) })
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadN: err %v, equal %v", err, bytes.Equal(got, body))
	}
	if limit := uint64(2*n + chunk); total > limit {
		t.Fatalf("reading a %d-byte payload allocated %d bytes, want at most %d (2n + 4 MiB)", n, total, limit)
	}
}

func TestDecodeLyingHeaderAllocatesLittle(t *testing.T) {
	var file [headerLen + 100]byte
	copy(file[:8], magic[:])
	binary.LittleEndian.PutUint32(file[8:12], Version)
	binary.LittleEndian.PutUint64(file[12:20], 1<<30) // claims 1 GiB over a 100-byte body
	var err error
	total := allocated(func() { _, _, err = DecodeBytes(file[:]) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("1 GiB header over a short body: want ErrCorrupt, got %v", err)
	}
	if limit := uint64(5 << 20); total > limit { // one 4 MiB read chunk, never a 1 GiB buffer
		t.Fatalf("1 GiB header over a short body allocated %d bytes, want at most %d", total, limit)
	}
}

// withHeader puts a payload behind a valid header.
func withHeader(payload []byte) []byte {
	var header [headerLen]byte
	copy(header[:8], magic[:])
	binary.LittleEndian.PutUint32(header[8:lenOffset], Version)
	binary.LittleEndian.PutUint64(header[lenOffset:], uint64(len(payload)))
	return append(header[:], payload...)
}

// lyingEntryCount returns a payload of about size bytes, of testConfig's
// shape for one agent and with every frame checksum-valid, whose agent's
// store claims an entry for nearly every byte left: zero padding, which
// reads as zero-valued entries until it runs out.
func lyingEntryCount(size int) []byte {
	var run codec.Encoder
	run.Str("a0000")
	run.Int(0)
	run.F64(0.2)
	run.Int(8)
	run.Varint(0)
	run.Varint(0)
	run.Uvarint(uint64(size - 128)) // entries
	s := &population.Snapshot{
		Name: "codec", Agents: 1, Shards: 1, Seed: 1, Tick: 1,
		ShardRNG: []uint64{0}, AgentRNG: []uint64{0}, Mail: make([][]core.Stimulus, 1),
	}
	head := codec.NewEncoder()
	appendHead(head, s, nil)
	pad := size - len(framed(head.Bytes(), run.Bytes()))
	return framed(head.Bytes(), append(run.Bytes(), make([]byte, pad)...))
}

// TestDecodeLyingCountAllocatesLittle: a payload whose one agent's store
// claims an entry for nearly every payload byte decodes — a run's bytes
// are read when it is restored — and its restore fails having allocated a
// small multiple of the payload, not an entry slice sized by the claim
// (about 100 bytes per claimed entry).
func TestDecodeLyingCountAllocatesLittle(t *testing.T) {
	const size = 1 << 20
	file := withHeader(lyingEntryCount(size))
	var err error
	total := allocated(func() {
		var s *population.Snapshot
		if s, _, err = DecodeBytes(file); err == nil {
			_, err = population.Restore(testConfig(1, 1, 1), s)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("lying entry count: want a count error from the restore, got %v", err)
	}
	if limit := uint64(8 * size); total > limit {
		t.Fatalf("a %d-byte payload claiming %d entries allocated %d bytes, want at most %d",
			size, size-128, total, limit)
	}
}

// TestReadLyingHeaderAllocatesLittle: Read trusts the file's size, not the
// header's length field, so a header claiming 1 GiB over a short file
// fails having allocated less than the file holds.
func TestReadLyingHeaderAllocatesLittle(t *testing.T) {
	file := make([]byte, headerLen+64<<10)
	copy(file[:8], magic[:])
	binary.LittleEndian.PutUint32(file[8:12], Version)
	binary.LittleEndian.PutUint64(file[12:20], 1<<30)
	path := filepath.Join(t.TempDir(), FileName("lying", 1))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	total := allocated(func() { _, _, err = Read(path) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("1 GiB header over a %d-byte file: want ErrCorrupt, got %v", len(file), err)
	}
	if limit := uint64(len(file)); total > limit {
		t.Fatalf("1 GiB header over a %d-byte file allocated %d bytes, want at most the file's size", len(file), total)
	}
}

// TestReadAllocatesPayloadOnce: a well-formed file is read into one buffer
// of the payload's size, not grown toward it.
func TestReadAllocatesPayloadOnce(t *testing.T) {
	snap, b, _ := multiSegment(t)
	path := filepath.Join(t.TempDir(), FileName("multi", 3))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var got *population.Snapshot
	var err error
	withRead := allocated(func() { got, _, err = Read(path) })
	if err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("Read: err %v, equal %v", err, reflect.DeepEqual(got, snap))
	}
	payload := b[headerLen:]
	decodeOnly := allocated(func() { _, _, err = decodePayload(payload) })
	if extra := withRead - decodeOnly; extra > uint64(len(payload))+64<<10 {
		t.Fatalf("Read allocated %d bytes beyond decoding a %d-byte payload, want one payload buffer", extra, len(payload))
	}
}

// TestMinSizesMatchEncoder: every minimum size Count is given must be what
// the encoder writes for a zero-valued element — larger would reject valid
// payloads, smaller would loosen the allocation bound. The store entry,
// agent and predictor sizes are pinned next to their encoders, in
// internal/knowledge and internal/core.
func TestMinSizesMatchEncoder(t *testing.T) {
	size := func(fn func(e *codec.Encoder)) int {
		e := &codec.Encoder{}
		fn(e)
		return e.Len()
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"stimulus", size(func(e *codec.Encoder) { core.AppendStimulus(e, core.Stimulus{}) }), core.MinStimulusSize},
		{"inbox", size(func(e *codec.Encoder) { e.Uvarint(0) }), minInboxSize},
		{"metadata pair", size(func(e *codec.Encoder) { e.Str(""); e.Str("") }), minMetaSize},
	} {
		if c.got != c.want {
			t.Errorf("zero %s encodes to %d bytes, constant says %d", c.name, c.got, c.want)
		}
	}
}
