package checkpoint

import (
	"bytes"
	"encoding/binary"
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

// sizedBuffer collects one frame, allocated at the frame's size when its
// header, the first write, arrives: the header of a materialised snapshot
// carries the payload's exact length.
type sizedBuffer struct{ buf []byte }

func (b *sizedBuffer) Write(p []byte) (int, error) {
	if b.buf == nil && len(p) == headerLen {
		b.buf = make([]byte, 0, headerLen+int(binary.LittleEndian.Uint64(p[lenOffset:]))+trailerLen)
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// headerLen and trailerLen are the fixed frame around the payload: magic,
// version and payload length (at lenOffset) before it, the payload's
// CRC-32C after it.
const (
	headerLen  = 20
	lenOffset  = 12
	trailerLen = 4
)

// writeFramed writes the snapshot that stream hands over to w, framed,
// and returns the payload's length: the header, the head segment, each
// run as it arrives, and the trailer. The checksum runs over the segments
// as they are written, so the payload is never joined into one buffer.
// The header's length is what is known when the head arrives: the head
// segment plus the runs the head snapshot already holds. For a
// materialised snapshot that is the payload; a streamed head holds no
// runs, and WriteStream patches the length once the payload is written.
func writeFramed(w io.Writer, stream func(population.Sink) error, meta map[string]string) (int, error) {
	f := framer{w: w}
	err := stream(population.Sink{
		Head: func(s *population.Snapshot) error {
			e := codec.NewEncoder()
			appendHead(e, s, meta)
			n := e.Len()
			for _, run := range s.Runs {
				n += len(run)
			}
			if err := f.header(n); err != nil {
				return err
			}
			return f.write(e.Bytes())
		},
		Run: f.write,
	})
	if err == nil {
		err = f.trailer()
	}
	return f.n, err
}

// framer writes one frame to w: the header, the payload in segments, each
// folded into the checksum as it passes, and the trailer.
type framer struct {
	w   io.Writer
	n   int // payload bytes written
	crc uint32
}

// header writes the header of an n-byte payload.
func (f *framer) header(n int) error {
	var header [headerLen]byte
	copy(header[:8], magic[:])
	binary.LittleEndian.PutUint32(header[8:lenOffset], Version)
	binary.LittleEndian.PutUint64(header[lenOffset:], uint64(n))
	_, err := f.w.Write(header[:])
	return err
}

// write writes the payload's next segment.
func (f *framer) write(seg []byte) error {
	if _, err := f.w.Write(seg); err != nil {
		return err
	}
	f.n += len(seg)
	f.crc = crc32.Update(f.crc, castagnoli, seg)
	return nil
}

// trailer writes the checksum of the segments written.
func (f *framer) trailer() error {
	var sum [trailerLen]byte
	binary.LittleEndian.PutUint32(sum[:], f.crc)
	_, err := f.w.Write(sum[:])
	return err
}

// Decode reads one snapshot from r, verifying magic, version, length and
// checksum before interpreting the payload. Damage is reported as an error
// wrapping ErrCorrupt.
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
	if size >= 0 && n > uint64(max(size-headerLen-trailerLen, 0)) {
		return nil, nil, fmt.Errorf("%w: payload length %d does not fit in %d bytes", ErrCorrupt, n, size)
	}
	payload, err := codec.ReadN(r, n, size >= 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	var sum [trailerLen]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: checksum: %v", ErrCorrupt, err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, nil, fmt.Errorf("%w: checksum mismatch (payload %08x, trailer %08x)", ErrCorrupt, got, want)
	}
	s, meta, err := decodePayload(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, meta, nil
}

// ---- payload encoding ----

// Minimum encoded sizes, in bytes, of the composite elements a length
// prefix counts: what a zero-valued element encodes to. Passing them to
// codec.Decoder.Count keeps a lying count from allocating more than a
// small multiple of the bytes that are actually there.
const (
	MinRangeStateSize = 7 // four bounds, three empty lists
	minInboxSize      = 1 // an empty mailbox's count
	minMetaSize       = 2 // an empty key and value
)

// appendHead writes the payload's head segment: the metadata, header
// fields, RNG positions and mail, and the agent count that opens the
// agents' states. The shards' runs follow it in the payload as the
// transport wrote them — spliced, never copied.
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
	e.Uvarint(uint64(s.Agents))
}

// AppendRange writes a population shard-range state — the state-transfer
// payload that initialises, migrates or rebalances a cluster worker,
// spelled like the snapshot payload: bounds, RNG positions, the agent
// count, then the shards' runs spliced verbatim.
func AppendRange(e *codec.Encoder, rs *population.RangeState) {
	e.Int(rs.LoShard)
	e.Int(rs.HiShard)
	e.Int(rs.LoAgent)
	e.Int(rs.HiAgent)
	e.U64s(rs.ShardRNG)
	e.U64s(rs.AgentRNG)
	e.Uvarint(uint64(rs.HiAgent - rs.LoAgent))
	n := 0
	for _, run := range rs.Runs {
		n += len(run)
	}
	e.Reserve(n)
	for _, run := range rs.Runs {
		e.Raw(run)
	}
}

// ---- payload decoding ----

// DecodeRange reads a shard-range state of a population whose agent
// partition is bounds (population.Partition). The agent states are cut
// into one run per shard that shares d's buffer; a range the partition
// does not have, or whose lists disagree with it, fails the decoder.
func DecodeRange(d *codec.Decoder, bounds []int) *population.RangeState {
	rs := &population.RangeState{
		LoShard:  d.Int(),
		HiShard:  d.Int(),
		LoAgent:  d.Int(),
		HiAgent:  d.Int(),
		ShardRNG: d.U64s(),
		AgentRNG: d.U64s(),
	}
	n := d.Count(core.MinStateSize)
	if d.Err() != nil {
		return rs
	}
	if err := population.ValidateShardRange(rs.LoShard, rs.HiShard, len(bounds)-1); err != nil {
		d.Fail("range state: %v", err)
		return rs
	}
	lo, hi := bounds[rs.LoShard], bounds[rs.HiShard]
	if rs.LoAgent != lo || rs.HiAgent != hi || n != hi-lo ||
		len(rs.ShardRNG) != rs.HiShard-rs.LoShard || len(rs.AgentRNG) != hi-lo {
		d.Fail("range state: shards [%d, %d) carry agents [%d, %d), %d shard streams, %d agent streams "+
			"and %d agent states; partition says agents [%d, %d)",
			rs.LoShard, rs.HiShard, rs.LoAgent, rs.HiAgent, len(rs.ShardRNG), len(rs.AgentRNG), n, lo, hi)
		return rs
	}
	rs.Runs = splitRuns(d, bounds, rs.LoShard, rs.HiShard)
	return rs
}

// splitRuns cuts the agent states of shards [lo, hi) out of d as one run
// per shard, sharing d's buffer. The walk reads lengths only — every count
// through Count, so a lying one fails — and allocates nothing but the run
// list.
func splitRuns(d *codec.Decoder, bounds []int, lo, hi int) [][]byte {
	runs := make([][]byte, hi-lo)
	for s := lo; s < hi && d.Err() == nil; s++ {
		start := d.Pos()
		for id := bounds[s]; id < bounds[s+1]; id++ {
			core.SkipState(d)
		}
		runs[s-lo] = d.Since(start)
	}
	return runs
}

// decodePayload interprets a payload whose checksum has been verified: a
// snapshot and its metadata, or the first malformed field. The agent
// states are split into one run per shard by the partition the header
// names. The payload must be consumed exactly.
func decodePayload(payload []byte) (*population.Snapshot, map[string]string, error) {
	d := codec.NewDecoder(payload)
	nm := d.Count(minMetaSize)
	meta := make(map[string]string, nm)
	for i := 0; i < nm && d.Err() == nil; i++ {
		k := d.Str()
		meta[k] = d.Str()
	}

	s := &population.Snapshot{
		Name:      d.Str(),
		Agents:    d.Int(),
		Shards:    d.Int(),
		Seed:      d.Varint(),
		Tick:      d.Int(),
		Steps:     d.Varint(),
		Messages:  d.Varint(),
		Delivered: d.Varint(),
		Actions:   d.Varint(),
	}
	s.Observed.RestoreState(d)
	s.Work, s.ShardRNG, s.AgentRNG = d.F64s(), d.U64s(), d.U64s()
	if n := d.Count(minInboxSize); n > 0 {
		s.Mail = make([][]core.Stimulus, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			m := d.Count(core.MinStimulusSize)
			if m > 0 {
				s.Mail[i] = make([]core.Stimulus, m)
				for j := 0; j < m && d.Err() == nil; j++ {
					// Snapshot mail is read once and most of its
					// sources appear once or twice: an Interner's map
					// would cost more than the strings it shares.
					s.Mail[i][j] = core.DecodeStimulus(d, nil)
				}
			}
		}
	}
	n := d.Count(core.MinStateSize)
	switch {
	case d.Err() != nil:
	case n != s.Agents:
		d.Fail("%d agent states for agents=%d", n, s.Agents)
	case n == 0:
	case s.Shards < 1 || s.Shards > n:
		d.Fail("%d shards for %d agents", s.Shards, n)
	default:
		s.Runs = splitRuns(d, population.Partition(n, s.Shards), 0, s.Shards)
	}
	if err := d.Finish(); err != nil {
		return nil, nil, err
	}
	return s, meta, nil
}
