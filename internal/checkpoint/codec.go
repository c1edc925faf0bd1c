package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/population"
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes the snapshot (plus optional caller metadata, e.g. the
// workload name a daemon needs to rebuild the population's Config) to w in
// the versioned wire format. Equal snapshots and metadata encode to equal
// bytes.
func Encode(w io.Writer, s *population.Snapshot, meta map[string]string) error {
	_, err := writeFramed(w, s.Stream, meta)
	return err
}

// EncodeBytes is Encode into a fresh byte slice, allocated once at the
// exact encoded size.
func EncodeBytes(s *population.Snapshot, meta map[string]string) ([]byte, error) {
	var b sizedBuffer
	if _, err := writeFramed(&b, s.Stream, meta); err != nil {
		return nil, err
	}
	return b.buf, nil
}

// sizedBuffer collects one file, allocated at the file's size when its
// header, the first write, arrives: the header of a materialised snapshot
// carries the payload's exact length.
type sizedBuffer struct{ buf []byte }

func (b *sizedBuffer) Write(p []byte) (int, error) {
	if b.buf == nil && len(p) == headerLen {
		b.buf = make([]byte, 0, headerLen+int(binary.LittleEndian.Uint64(p[lenOffset:])))
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// headerLen is the fixed header before the payload: magic, version and
// payload length (at lenOffset).
const (
	headerLen = 20
	lenOffset = 12
)

// writeFramed writes the snapshot that stream hands over to w — the
// header, then the head and each run, as it arrives, in a frame of its
// own — and returns the payload's length. The header's length is what is
// known when the head arrives: the head's frame plus the frames of the
// runs the head snapshot already holds. For a materialised snapshot that
// is the payload; a streamed head holds no runs, and WriteStream patches
// the length once the payload is written.
func writeFramed(w io.Writer, stream func(population.Sink) error, meta map[string]string) (int, error) {
	f := framer{w: w}
	err := stream(population.Sink{
		Head: func(s *population.Snapshot) error {
			e := codec.NewEncoder()
			appendHead(e, s, meta)
			n := frameLen(e.Bytes())
			for _, run := range s.Runs {
				n += frameLen(run)
			}
			var header [headerLen]byte
			copy(header[:8], magic[:])
			binary.LittleEndian.PutUint32(header[8:lenOffset], Version)
			binary.LittleEndian.PutUint64(header[lenOffset:], uint64(n))
			if _, err := w.Write(header[:]); err != nil {
				return err
			}
			return f.frame(e.Bytes())
		},
		Run: f.frame,
	})
	return f.n, err
}

// A frame is one self-checking unit of a payload: a uvarint length, that
// many bytes, and their CRC-32C (little-endian uint32). A file's payload
// is the head's frame and then one frame per shard run; a range state's
// runs are frames too. The frame is the only checksum, so each byte is
// checked once, and a damaged one is traced to its frame.
const (
	crcLen      = 4
	minFrameLen = 1 + crcLen // an empty frame
)

// frameLen is the encoded size of b's frame.
func frameLen(b []byte) int {
	var v [binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(v[:0], uint64(len(b)))) + len(b) + crcLen
}

// framer writes frames to w and counts the bytes written.
type framer struct {
	w   io.Writer
	n   int
	buf [binary.MaxVarintLen64]byte
}

// frame writes b as one frame: its length, b, and b's checksum.
func (f *framer) frame(b []byte) error {
	if err := f.write(binary.AppendUvarint(f.buf[:0], uint64(len(b)))); err != nil {
		return err
	}
	if err := f.write(b); err != nil {
		return err
	}
	return f.write(binary.LittleEndian.AppendUint32(f.buf[:0], crc32.Checksum(b, castagnoli)))
}

func (f *framer) write(p []byte) error {
	_, err := f.w.Write(p)
	f.n += len(p)
	return err
}

// readFrame reads one frame from d and returns its bytes, which share d's
// buffer, once their checksum matches. A frame cut short or failing its
// check fails d with ErrCorrupt, naming shard's run (the head's frame when
// shard is negative).
func readFrame(d *codec.Decoder, shard int) []byte {
	f := *d
	b, sum := f.StrBytes(), f.U32()
	err := f.Err()
	if got := crc32.Checksum(b, castagnoli); err == nil && got != sum {
		err = fmt.Errorf("checksum mismatch (bytes %08x, frame %08x)", got, sum)
	}
	if err != nil {
		what := "head"
		if shard >= 0 {
			what = fmt.Sprintf("shard %d run", shard)
		}
		d.Fail("%w: %s: %v", ErrCorrupt, what, err)
		return nil
	}
	*d = f
	return b
}

// Decode reads one snapshot from r, verifying magic, version and length,
// and each frame's checksum before interpreting its bytes. Damage is
// reported as an error wrapping ErrCorrupt.
func Decode(r io.Reader) (*population.Snapshot, map[string]string, error) {
	return decode(r, -1)
}

// DecodeBytes is Decode from a byte slice, whose length bounds the payload
// as a file's size does for Read.
func DecodeBytes(b []byte) (*population.Snapshot, map[string]string, error) {
	return decode(bytes.NewReader(b), int64(len(b)))
}

// decode is Decode from a reader that holds at most size bytes in all
// (negative: unknown). A known size is a trusted bound, unlike the header's
// length field: a payload that cannot fit in it is corrupt before a byte of
// it is read, and one that can is read into one buffer of its exact size.
func decode(r io.Reader, size int64) (*population.Snapshot, map[string]string, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(header[:8], magic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, header[:8])
	}
	if v := binary.LittleEndian.Uint32(header[8:12]); v != Version {
		return nil, nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrCorrupt, v, Version)
	}
	n := binary.LittleEndian.Uint64(header[12:20])
	const maxPayload = 1 << 32 // 4 GiB: far above any real population, far below a length-field attack
	if n > maxPayload {
		return nil, nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	if size >= 0 && n > uint64(max(size-headerLen, 0)) {
		return nil, nil, fmt.Errorf("%w: payload length %d does not fit in %d bytes", ErrCorrupt, n, size)
	}
	payload, err := codec.ReadN(r, n, size >= 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return decodePayload(payload)
}

// ---- payload encoding ----

// Minimum encoded sizes, in bytes, of the composite elements a length
// prefix counts: what a zero-valued element encodes to. Passing them to
// codec.Decoder.Count keeps a lying count from allocating more than a
// small multiple of the bytes that are actually there.
const (
	minInboxSize = 1 // an empty mailbox's count
	minMetaSize  = 2 // an empty key and value
)

// appendHead writes the payload's head: the metadata, header fields, RNG
// positions and mail. The shards' runs follow it in the payload, each in
// its own frame, as the transport wrote them — never copied.
func appendHead(e *codec.Encoder, s *population.Snapshot, meta map[string]string) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys) // maps encode sorted: equal metadata, equal bytes
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.Str(meta[k])
	}

	e.Str(s.Name)
	e.Int(s.Agents)
	e.Int(s.Shards)
	e.Varint(s.Seed)
	e.Int(s.Tick)
	e.Varint(s.Steps)
	e.Varint(s.Messages)
	e.Varint(s.Delivered)
	e.Varint(s.Actions)
	s.Observed.AppendState(e)
	e.F64s(s.Work)
	e.U64s(s.ShardRNG)
	e.U64s(s.AgentRNG)
	e.Uvarint(uint64(len(s.Mail)))
	for _, inbox := range s.Mail {
		e.Uvarint(uint64(len(inbox)))
		for _, st := range inbox {
			core.AppendStimulus(e, st)
		}
	}
}

// AppendRange writes a population shard-range state — the state-transfer
// payload that initialises, migrates or rebalances a cluster worker: its
// bounds and RNG positions, then one frame per shard run, as a file
// spells its runs.
func AppendRange(e *codec.Encoder, rs *population.RangeState) {
	e.Int(rs.LoShard)
	e.Int(rs.HiShard)
	e.Int(rs.LoAgent)
	e.Int(rs.HiAgent)
	e.U64s(rs.ShardRNG)
	e.U64s(rs.AgentRNG)
	n := 0
	for _, run := range rs.Runs {
		n += frameLen(run)
	}
	e.Reserve(n)
	f := framer{w: e}
	for _, run := range rs.Runs {
		_ = f.frame(run) // an Encoder never fails a write
	}
}

// ---- payload decoding ----

// DecodeRange reads a shard-range state of a population whose agent
// partition is bounds (population.Partition). Each shard's run is read
// from its frame and shares d's buffer; a range the partition does not
// have, lists that disagree with it, or a frame that is cut short or fails
// its checksum (ErrCorrupt, naming the shard) fail the decoder.
func DecodeRange(d *codec.Decoder, bounds []int) *population.RangeState {
	rs := &population.RangeState{
		LoShard:  d.Int(),
		HiShard:  d.Int(),
		LoAgent:  d.Int(),
		HiAgent:  d.Int(),
		ShardRNG: d.U64s(),
		AgentRNG: d.U64s(),
	}
	if d.Err() != nil {
		return rs
	}
	if err := population.ValidateShardRange(rs.LoShard, rs.HiShard, len(bounds)-1); err != nil {
		d.Fail("range state: %v", err)
		return rs
	}
	lo, hi := bounds[rs.LoShard], bounds[rs.HiShard]
	if rs.LoAgent != lo || rs.HiAgent != hi ||
		len(rs.ShardRNG) != rs.HiShard-rs.LoShard || len(rs.AgentRNG) != hi-lo {
		d.Fail("range state: shards [%d, %d) carry agents [%d, %d), %d shard streams and %d agent streams; "+
			"partition says agents [%d, %d)",
			rs.LoShard, rs.HiShard, rs.LoAgent, rs.HiAgent, len(rs.ShardRNG), len(rs.AgentRNG), lo, hi)
		return rs
	}
	rs.Runs = make([][]byte, rs.HiShard-rs.LoShard)
	for i := range rs.Runs {
		rs.Runs[i] = readFrame(d, rs.LoShard+i)
	}
	return rs
}

// decodePayload interprets a payload: a snapshot and its metadata, or an
// error wrapping ErrCorrupt that names the first malformed field or the
// first frame that fails its checksum. The head is read from its frame,
// then one run per shard from the frames after it. The payload must be
// consumed exactly.
func decodePayload(payload []byte) (*population.Snapshot, map[string]string, error) {
	d := codec.NewDecoder(payload)
	h := codec.NewDecoder(readFrame(d, -1))
	nm := h.Count(minMetaSize)
	meta := make(map[string]string, nm)
	for i := 0; i < nm && h.Err() == nil; i++ {
		k := h.Str()
		meta[k] = h.Str()
	}

	s := &population.Snapshot{
		Name:      h.Str(),
		Agents:    h.Int(),
		Shards:    h.Int(),
		Seed:      h.Varint(),
		Tick:      h.Int(),
		Steps:     h.Varint(),
		Messages:  h.Varint(),
		Delivered: h.Varint(),
		Actions:   h.Varint(),
	}
	s.Observed.RestoreState(h)
	s.Work, s.ShardRNG, s.AgentRNG = h.F64s(), h.U64s(), h.U64s()
	if n := h.Count(minInboxSize); n > 0 {
		s.Mail = make([][]core.Stimulus, n)
		for i := 0; i < n && h.Err() == nil; i++ {
			m := h.Count(core.MinStimulusSize)
			if m > 0 {
				s.Mail[i] = make([]core.Stimulus, m)
				for j := 0; j < m && h.Err() == nil; j++ {
					// Snapshot mail is read once and most of its
					// sources appear once or twice: an Interner's map
					// would cost more than the strings it shares.
					s.Mail[i][j] = core.DecodeStimulus(h, nil)
				}
			}
		}
	}
	if err := h.Finish(); err != nil {
		d.Fail("head: %v", err)
	}
	switch {
	case d.Err() != nil, s.Agents == 0:
	case s.Shards < 1 || s.Shards > s.Agents || s.Shards > len(payload)/minFrameLen:
		d.Fail("%d shards for %d agents in a %d-byte payload", s.Shards, s.Agents, len(payload))
	default:
		s.Runs = make([][]byte, s.Shards)
		for i := range s.Runs {
			s.Runs[i] = readFrame(d, i)
		}
	}
	if err := d.Finish(); err != nil {
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return nil, nil, err
	}
	return s, meta, nil
}
