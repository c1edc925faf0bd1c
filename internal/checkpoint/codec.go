package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"sacs/internal/core"
	"sacs/internal/knowledge"
	"sacs/internal/population"
	"sacs/internal/stats"
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes the snapshot (plus optional caller metadata, e.g. the
// workload name a daemon needs to rebuild the population's Config) to w in
// the versioned wire format. Equal snapshots and metadata encode to equal
// bytes.
func Encode(w io.Writer, s *population.Snapshot, meta map[string]string) error {
	segs, n := encodePayload(s, meta)
	return writeFramed(w, segs, n)
}

// EncodeBytes is Encode into a fresh byte slice, allocated once at the
// exact encoded size.
func EncodeBytes(s *population.Snapshot, meta map[string]string) ([]byte, error) {
	segs, n := encodePayload(s, meta)
	buf := bytes.NewBuffer(make([]byte, 0, headerLen+n+trailerLen))
	if err := writeFramed(buf, segs, n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// headerLen and trailerLen are the fixed frame around the payload: magic,
// version and payload length before it, the payload's CRC-32C after it.
const (
	headerLen  = 20
	trailerLen = 4
)

// writeFramed writes the header for an n-byte payload, the payload
// segments in order, and the trailer. The checksum runs over the segments
// as they are written, so the payload is never joined into one buffer.
func writeFramed(w io.Writer, segs [][]byte, n int) error {
	var header [headerLen]byte
	copy(header[:8], magic[:])
	binary.LittleEndian.PutUint32(header[8:12], Version)
	binary.LittleEndian.PutUint64(header[12:20], uint64(n))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	var crc uint32
	for _, seg := range segs {
		if _, err := w.Write(seg); err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, seg)
	}
	var sum [trailerLen]byte
	binary.LittleEndian.PutUint32(sum[:], crc)
	_, err := w.Write(sum[:])
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
	payload, err := readPayload(r, n, size >= 0)
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

// decodePayload interprets a payload whose checksum has been verified: a
// snapshot and its metadata, or the first malformed field. The payload
// must be consumed exactly.
func decodePayload(payload []byte) (*population.Snapshot, map[string]string, error) {
	d := NewDecoder(payload)
	s, meta := d.payload()
	if err := d.Finish(); err != nil {
		return nil, nil, err
	}
	return s, meta, nil
}

// readPayload reads exactly n declared payload bytes. When bounded, the
// caller has checked n against the bytes r can hold, so the buffer is
// allocated once at its exact size. Otherwise the length field is
// untrusted: the buffer starts at one 4 MiB chunk and doubles (capped at
// n) only once the bytes read have filled it, so a corrupt header claiming
// gigabytes on a short stream fails having allocated at most one chunk or
// twice the bytes present, not an OOM. Reads land directly in the buffer's
// spare capacity.
func readPayload(r io.Reader, n uint64, bounded bool) ([]byte, error) {
	const chunk = 4 << 20
	first := n
	if !bounded {
		first = min(n, chunk)
	}
	buf := make([]byte, 0, first)
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(2*uint64(cap(buf)), n))
		copy(grown, buf)
		buf = grown
	}
}

// ---- payload encoding ----

// Encoder appends the format's primitives — varints, length-prefixed
// strings, IEEE-754 bit floats, and the shared composite shapes (stimuli,
// store and agent states, shard range states) — to a growing buffer. The
// snapshot payload is built from exactly these primitives, and
// internal/cluster reuses them for its wire messages so the two formats can
// never drift on how a stimulus or an agent state is spelled in bytes.
type Encoder struct{ buf []byte }

// NewEncoder returns an Encoder with a modest pre-grown buffer.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 1<<12)} }

// Bytes returns the encoded buffer (owned by the encoder; copy to retain
// past the encoder's next use).
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s appends a length-prefixed float64 slice.
func (e *Encoder) F64s(v []float64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Online appends a stats.Online state.
func (e *Encoder) Online(o stats.OnlineState) {
	e.Int(o.N)
	e.F64(o.Mean)
	e.F64(o.M2)
	e.F64(o.Min)
	e.F64(o.Max)
}

// Stimulus appends one core.Stimulus.
func (e *Encoder) Stimulus(s core.Stimulus) {
	e.Str(s.Name)
	e.Str(s.Source)
	e.Int(int(s.Scope))
	e.F64(s.Value)
	e.F64(s.Time)
}

// StoreState appends one knowledge store's exported state.
func (e *Encoder) StoreState(st knowledge.StoreState) {
	e.F64(st.Alpha)
	e.Int(st.HistLen)
	e.Varint(st.Reads)
	e.Varint(st.Writes)
	e.Uvarint(uint64(len(st.Entries)))
	for _, en := range st.Entries {
		e.Str(en.Name)
		e.Int(int(en.Scope))
		e.F64(en.Value)
		e.F64(en.Variance)
		e.Int(en.N)
		e.F64(en.LastUpdate)
		e.F64s(en.HistT)
		e.F64s(en.HistV)
	}
}

// AgentState appends one agent's exported state.
func (e *Encoder) AgentState(a core.AgentState) {
	e.Str(a.Name)
	e.Int(a.Steps)
	e.StoreState(a.Store)
	e.Bool(a.Goals != nil)
	if a.Goals != nil {
		e.Int(a.Goals.Next)
		e.Int(a.Goals.Switches)
	}
	e.F64(a.GoalSwitches)
	e.F64(a.Interactions)
	e.Bool(a.Time != nil)
	if a.Time != nil {
		e.Uvarint(uint64(len(a.Time.Preds)))
		for _, p := range a.Time.Preds {
			e.Str(p.Stim)
			e.Str(p.Kind)
			e.F64s(p.State)
			e.F64s(p.Err)
		}
	}
	e.Bool(a.Meta != nil)
	if a.Meta != nil {
		e.Int(a.Meta.PoolIdx)
		e.Int(a.Meta.Adaptations)
		e.F64(a.Meta.LastErr)
		e.F64s(a.Meta.Detector)
	}
}

// RangeState appends a population shard-range state — the state-transfer
// payload that initialises or rebalances a cluster worker, spelled with the
// same primitives as the snapshot payload.
func (e *Encoder) RangeState(rs *population.RangeState) {
	e.Int(rs.LoShard)
	e.Int(rs.HiShard)
	e.Int(rs.LoAgent)
	e.Int(rs.HiAgent)
	e.Uvarint(uint64(len(rs.ShardRNG)))
	for _, v := range rs.ShardRNG {
		e.U64(v)
	}
	e.Uvarint(uint64(len(rs.AgentRNG)))
	for _, v := range rs.AgentRNG {
		e.U64(v)
	}
	e.Uvarint(uint64(len(rs.AgentStates)))
	for _, a := range rs.AgentStates {
		e.AgentState(a)
	}
}

// segmentSize is the size at which encodePayload sets a payload segment
// aside and starts a fresh one; segmentSlack is the headroom above it that
// lets the element which crosses the mark (one agent state, one inbox)
// finish in place. Full segments are never copied again, unlike a single
// growing buffer, which Go reallocates and copies in 1.25x steps.
const (
	segmentSize  = 1 << 20
	segmentSlack = 64 << 10
)

// segmenter is an Encoder whose buffer is cut into fixed-size segments
// between top-level payload elements.
type segmenter struct {
	Encoder
	full [][]byte // segments set aside, in payload order
	n    int      // bytes in full
}

func newSegmenter() *segmenter {
	return &segmenter{Encoder: Encoder{buf: make([]byte, 0, segmentSize+segmentSlack)}}
}

// cut sets the current segment aside once it has reached segmentSize.
func (g *segmenter) cut() {
	if len(g.buf) < segmentSize {
		return
	}
	g.full = append(g.full, g.buf)
	g.n += len(g.buf)
	g.buf = make([]byte, 0, segmentSize+segmentSlack)
}

// segments returns the whole payload as ordered segments and its length.
func (g *segmenter) segments() ([][]byte, int) {
	return append(g.full, g.buf), g.n + len(g.buf)
}

// encodePayload encodes the snapshot payload as ordered segments whose
// concatenation is the payload, plus its total length.
func encodePayload(s *population.Snapshot, meta map[string]string) ([][]byte, int) {
	e := newSegmenter()
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
	e.Online(s.Observed)
	e.F64s(s.Work)
	e.Uvarint(uint64(len(s.ShardRNG)))
	for _, v := range s.ShardRNG {
		e.U64(v)
	}
	e.Uvarint(uint64(len(s.AgentRNG)))
	for _, v := range s.AgentRNG {
		e.U64(v)
	}
	e.Uvarint(uint64(len(s.Mail)))
	for _, inbox := range s.Mail {
		e.Uvarint(uint64(len(inbox)))
		for _, st := range inbox {
			e.Stimulus(st)
		}
		e.cut()
	}
	e.Uvarint(uint64(len(s.AgentStates)))
	for _, a := range s.AgentStates {
		e.AgentState(a)
		e.cut()
	}
	return e.segments()
}

// ---- payload decoding ----

// Decoder walks a payload with saturating error handling: the first
// malformed field poisons the decoder and every later read returns zero
// values, so call sites stay linear and the caller checks Err once. In the
// snapshot path the checksum has already validated the bytes, so errors
// here mean a format bug or version skew; in the cluster wire path they
// mean a framing bug or a peer speaking another version — but they are
// always errors, never panics.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a Decoder over b (not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish reports the first decoding failure, or an error when decoding
// stopped short of the buffer's end — a well-formed message consumes
// exactly its payload.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%d trailing bytes after payload", len(d.buf)-d.pos)
	}
	return nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Int reads a signed varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail("truncated u64 at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated bool at offset %d", d.pos)
		return false
	}
	b := d.buf[d.pos]
	d.pos++
	if b > 1 {
		d.fail("invalid bool byte %d at offset %d", b, d.pos-1)
		return false
	}
	return b == 1
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.pos) < n {
		d.fail("string of %d bytes overruns payload at offset %d", n, d.pos)
		return ""
	}
	s := string(d.buf[d.pos : d.pos+uint64asInt(n)])
	d.pos += uint64asInt(n)
	return s
}

// Minimum encoded sizes, in bytes, of the composite elements a length
// prefix counts: what a zero-valued element encodes to. Passing them to
// Count keeps a lying count from allocating more than a small multiple of
// the bytes that are actually there.
const (
	MinStimulusSize   = 19 // two empty strings, a scope, two floats
	MinRangeStateSize = 7  // four bounds, three empty lists
	minEntrySize      = 29 // store entry: name, scope, 3 floats, count, 2 empty histories
	minAgentSize      = 33 // name, steps, empty store (12), 2 floats, 3 absent flags
	minPredictorSize  = 4  // two empty strings, two empty float lists
	minInboxSize      = 1  // an empty mailbox's count
	minMetaSize       = 2  // an empty key and value
)

// Count reads a length prefix for elements of at least elemSize bytes and
// rejects counts the remaining payload cannot possibly hold, bounding
// allocation even for adversarial inputs that happen to pass the CRC.
func (d *Decoder) Count(elemSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(d.buf)-d.pos)/uint64(elemSize)+1 {
		d.fail("count %d exceeds remaining payload at offset %d", n, d.pos)
		return 0
	}
	return uint64asInt(n)
}

func uint64asInt(v uint64) int { return int(v) }

// F64s reads a length-prefixed float64 slice. The bound is checked once
// for the whole slice, then the floats are read without per-element checks.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	if len(d.buf)-d.pos < 8*n {
		d.fail("%d floats overrun payload at offset %d", n, d.pos)
		return nil
	}
	out := make([]float64, n)
	b := d.buf[d.pos : d.pos+8*n]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	d.pos += 8 * n
	return out
}

// Online reads a stats.Online state.
func (d *Decoder) Online() stats.OnlineState {
	return stats.OnlineState{N: d.Int(), Mean: d.F64(), M2: d.F64(), Min: d.F64(), Max: d.F64()}
}

// Stimulus reads one core.Stimulus.
func (d *Decoder) Stimulus() core.Stimulus {
	return core.Stimulus{
		Name:   d.Str(),
		Source: d.Str(),
		Scope:  knowledge.Scope(d.Int()),
		Value:  d.F64(),
		Time:   d.F64(),
	}
}

// StoreState reads one knowledge store's exported state.
func (d *Decoder) StoreState() knowledge.StoreState {
	st := knowledge.StoreState{
		Alpha:   d.F64(),
		HistLen: d.Int(),
		Reads:   d.Varint(),
		Writes:  d.Varint(),
	}
	n := d.Count(minEntrySize)
	if n > 0 {
		st.Entries = make([]knowledge.EntryState, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		st.Entries[i] = knowledge.EntryState{
			Name:       d.Str(),
			Scope:      knowledge.Scope(d.Int()),
			Value:      d.F64(),
			Variance:   d.F64(),
			N:          d.Int(),
			LastUpdate: d.F64(),
			HistT:      d.F64s(),
			HistV:      d.F64s(),
		}
	}
	return st
}

// AgentState reads one agent's exported state.
func (d *Decoder) AgentState() core.AgentState {
	a := core.AgentState{
		Name:  d.Str(),
		Steps: d.Int(),
		Store: d.StoreState(),
	}
	if d.Bool() {
		a.Goals = &core.SwitcherStateRef{Next: d.Int(), Switches: d.Int()}
	}
	a.GoalSwitches = d.F64()
	a.Interactions = d.F64()
	if d.Bool() {
		n := d.Count(minPredictorSize)
		t := &core.TimeState{}
		if n > 0 {
			t.Preds = make([]core.PredictorState, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			t.Preds[i] = core.PredictorState{
				Stim:  d.Str(),
				Kind:  d.Str(),
				State: d.F64s(),
				Err:   d.F64s(),
			}
		}
		a.Time = t
	}
	if d.Bool() {
		a.Meta = &core.MetaState{
			PoolIdx:     d.Int(),
			Adaptations: d.Int(),
			LastErr:     d.F64(),
			Detector:    d.F64s(),
		}
	}
	return a
}

// RangeState reads a population shard-range state.
func (d *Decoder) RangeState() *population.RangeState {
	rs := &population.RangeState{
		LoShard: d.Int(),
		HiShard: d.Int(),
		LoAgent: d.Int(),
		HiAgent: d.Int(),
	}
	if n := d.Count(8); n > 0 {
		rs.ShardRNG = make([]uint64, n)
		for i := range rs.ShardRNG {
			rs.ShardRNG[i] = d.U64()
		}
	}
	if n := d.Count(8); n > 0 {
		rs.AgentRNG = make([]uint64, n)
		for i := range rs.AgentRNG {
			rs.AgentRNG[i] = d.U64()
		}
	}
	if n := d.Count(minAgentSize); n > 0 {
		rs.AgentStates = make([]core.AgentState, n)
		for i := 0; i < n && d.err == nil; i++ {
			rs.AgentStates[i] = d.AgentState()
		}
	}
	return rs
}

func (d *Decoder) payload() (*population.Snapshot, map[string]string) {
	nm := d.Count(minMetaSize)
	meta := make(map[string]string, nm)
	for i := 0; i < nm && d.err == nil; i++ {
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
		Observed:  d.Online(),
		Work:      d.F64s(),
	}
	if n := d.Count(8); n > 0 {
		s.ShardRNG = make([]uint64, n)
		for i := range s.ShardRNG {
			s.ShardRNG[i] = d.U64()
		}
	}
	if n := d.Count(8); n > 0 {
		s.AgentRNG = make([]uint64, n)
		for i := range s.AgentRNG {
			s.AgentRNG[i] = d.U64()
		}
	}
	if n := d.Count(minInboxSize); n > 0 {
		s.Mail = make([][]core.Stimulus, n)
		for i := 0; i < n && d.err == nil; i++ {
			m := d.Count(MinStimulusSize)
			if m > 0 {
				s.Mail[i] = make([]core.Stimulus, m)
				for j := 0; j < m && d.err == nil; j++ {
					s.Mail[i][j] = d.Stimulus()
				}
			}
		}
	}
	if n := d.Count(minAgentSize); n > 0 {
		s.AgentStates = make([]core.AgentState, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.AgentStates[i] = d.AgentState()
		}
	}
	return s, meta
}
