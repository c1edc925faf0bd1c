package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sacs/internal/core"
	"sacs/internal/knowledge"
	"sacs/internal/population"
)

// syntheticSnapshot builds a snapshot whose agents each carry one store
// entry with hist-point histories, so the payload size is set directly
// rather than by running a population.
func syntheticSnapshot(agents, hist int) *population.Snapshot {
	s := &population.Snapshot{
		Name: "synthetic", Agents: agents, Shards: 1, Seed: 7, Tick: 3,
		ShardRNG:    []uint64{99},
		AgentRNG:    make([]uint64, agents),
		Mail:        make([][]core.Stimulus, agents),
		AgentStates: make([]core.AgentState, agents),
	}
	for id := range s.AgentStates {
		s.AgentRNG[id] = uint64(id) * 0x9E3779B97F4A7C15
		ht, hv := make([]float64, hist), make([]float64, hist)
		for i := range ht {
			ht[i], hv[i] = float64(i), float64(id*hist+i)/3
		}
		s.AgentStates[id] = core.AgentState{
			Name:  fmt.Sprintf("s%05d", id),
			Steps: id,
			Store: knowledge.StoreState{Alpha: 0.25, HistLen: hist, Entries: []knowledge.EntryState{
				{Name: "stim/load", Value: float64(id), N: hist, HistT: ht, HistV: hv},
			}},
		}
	}
	return s
}

// multiSegment returns a synthetic snapshot whose payload spans at least
// three encoder segments, with its encoding and segment boundaries.
func multiSegment(t *testing.T) (*population.Snapshot, []byte, [][]byte) {
	t.Helper()
	snap := syntheticSnapshot(256, 1024) // ~16 KiB per agent, ~4 MiB in all
	segs, n := encodePayload(snap, map[string]string{"id": "multi"})
	if len(segs) < 3 {
		t.Fatalf("payload of %d bytes spans %d segments, want at least 3", n, len(segs))
	}
	b, err := EncodeBytes(snap, map[string]string{"id": "multi"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(b) != headerLen+n+trailerLen || cap(b) != len(b) {
		t.Fatalf("EncodeBytes: len %d cap %d, want exactly %d", len(b), cap(b), headerLen+n+trailerLen)
	}
	return snap, b, segs
}

func TestMultiSegmentRoundTrip(t *testing.T) {
	snap, b, segs := multiSegment(t)
	if !bytes.Equal(b[headerLen:len(b)-trailerLen], bytes.Join(segs, nil)) {
		t.Fatal("encoded payload is not the concatenation of its segments")
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
	flip[headerLen+len(segs[0])+len(segs[1])/2] ^= 0x08
	if _, _, err := DecodeBytes(flip); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("byte flipped in the second segment: want ErrCorrupt, got %v", err)
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
	total := allocated(func() { got, err = readPayload(bytes.NewReader(body), uint64(n)) })
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readPayload: err %v, equal %v", err, bytes.Equal(got, body))
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
