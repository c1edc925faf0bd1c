package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/population"
)

// The wire protocol is deliberately minimal: every message is one frame —
//
//	offset  size  field
//	0       4     frame length N, uint32 little-endian (type byte + body)
//	4       1     message type
//	5       N-1   body, spelled with internal/codec's primitives
//
// — and every request is answered by exactly one reply frame on the same
// connection (msgErr is a valid reply to anything). The barrier protocol is
// lock-step per population, so there is no pipelining to manage; one
// in-flight request per connection, guarded by the caller.
//
// Integrity: TCP already guarantees ordered, checksummed delivery, so a
// message frame carries no CRC of its own. The agent state inside one
// does: a range state's shard runs travel in the checkpoint codec's run
// frames, each with its length and CRC-32C, exactly as a snapshot file
// holds them, so a worker checks every run it installs or adopts end to
// end. Length and per-field bounds are validated throughout — a confused
// peer fails with an error, never an OOM or a panic.

// maxFrame bounds one frame (1 GiB): far above any real tick exchange or
// range state, far below a length-field attack.
const maxFrame = 1 << 30

// protocolVersion is negotiated implicitly: it is the first body byte of
// every init message, and a worker refuses versions it does not speak.
//
// v2 added StepNanos to tick-reply exchanges (observability: the
// coordinator decomposes tick wall time into compute vs. barrier wait even
// for remote shards).
//
// v3 added the coordinator's per-shard cost snapshot to msgInit (so a
// worker's first tick dispatches in the established LPT order) and the
// Steals counter to tick-reply exchanges. Both are observation-only: like
// StepNanos they never feed stepping, so v3 ticks are byte-identical to v2
// ticks modulo the two new varint fields.
//
// v4 made shard ownership elastic: a worker hosts an arbitrary set of a
// population's shards (so msgInit accepts an empty range — an admitted
// member holding no shards yet), msgExport replies msgRanges (one
// RangeState per contiguous run of the hosted set), tick requests carry
// mail for every owned agent interval and tick replies carry the owned
// shards' exchanges in shard index order, and the msgMigrate / msgAdopt /
// msgRelease triplet moves a shard range between workers at a tick
// barrier. Ownership changes never touch the moving state's bytes, so v4
// runs — migrations included — stay byte-identical to v3 and to the
// single-process engine.
//
// v5 removed v3's cost snapshot from msgInit and the cost priors from
// msgAdopt: a worker's cost model learns from its own ticks only. Tick,
// export and range bodies are unchanged.
//
// v6 spells a range state's shard runs as checkpoint run frames (length,
// bytes, CRC-32C) in place of an agent count and the runs back to back,
// and a model's one-point history only when a ring holds it (checkpoint
// format version 2). Tick bodies are unchanged.
//
// v7 drops msgExport and its msgRanges reply: a coordinator exports by
// sending v4's msgMigrate, renamed msgDrain, once per owned run of each
// worker. Message type numbers after msgTickOK shift down by one; range,
// tick and adopt bodies are unchanged.
const protocolVersion = 7

type msgType byte

// Every post-init request names the population and carries the attach
// epoch the worker returned from msgInit. The epoch is the split-brain
// guard: a second coordinator initialising the same id bumps it, and the
// first coordinator's next request fails loudly instead of silently
// stepping replaced state.
const (
	msgErr     msgType = iota // body: error string
	msgOK                     // empty, except init's reply: attach epoch
	msgInit                   // version, population spec + owned shard range
	msgInstall                // id, epoch, RangeState (state transfer)
	msgTick                   // id, epoch, tick, owned agents' mailboxes
	msgTickOK                 // per-owned-shard exchanges
	msgRange                  // RangeState (drain reply)
	msgExplain                // id, epoch, agent, now
	msgText                   // rendered explanation
	msgDrop                   // id, epoch (dropped only if the epoch still owns it)
	msgPing                   // empty body (readiness probe)
	msgDrain                  // id, epoch, shard range → msgRange (read-only copy of a hosted run: export and migration)
	msgAdopt                  // id, epoch, RangeState (add a range to the hosted shards)
	msgRelease                // id, epoch, shard range (forget it: a migration's source-side commit, or a failed adopt's rollback)
)

var errFrameTooLarge = errors.New("cluster: frame exceeds size limit")

// writeFrame writes one frame. The caller flushes. The header is spelled
// in the writer's own buffer: a header array handed to an io.Writer would
// be allocated per frame.
func writeFrame(w *bufio.Writer, t msgType, body []byte) error {
	n := len(body) + 1
	if n > maxFrame {
		return fmt.Errorf("%w (%d bytes)", errFrameTooLarge, n)
	}
	hdr := append(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(n)), byte(t))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame. The length field is a peer's claim, so a body
// grows as its bytes arrive (codec.ReadN's untrusted path): a header
// declaring maxFrame over a short stream costs one read chunk, not the
// declared size.
//
// With scratch set, a tick body (msgTick or msgTickOK) is read into
// *scratch instead: its decoder copies every value out before its reader
// takes the next frame, so one buffer serves every tick. A tick body larger
// than the buffer takes the untrusted path and, once all of its bytes have
// arrived, becomes the buffer. Every other body gets an allocation of its
// own, because what is decoded from it (a range's shard runs) aliases it.
func readFrame(r *bufio.Reader, scratch *[]byte) (msgType, []byte, error) {
	hdr, err := readHeader(r) // length, then the type byte the length counts
	if err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("%w (declared %d bytes)", errFrameTooLarge, n)
	}
	t, size := msgType(hdr[4]), int(n-1)
	tick := scratch != nil && (t == msgTick || t == msgTickOK)
	if tick && size <= cap(*scratch) {
		body := (*scratch)[:size]
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, nil, err
		}
		return t, body, nil
	}
	body, err := codec.ReadN(r, uint64(size), false)
	if err != nil {
		return 0, nil, err
	}
	if tick {
		*scratch = body
	}
	return t, body, nil
}

// readHeader reads a frame's 5-byte header, copied out of the reader's
// buffer: a header array handed to an io.Reader would be allocated per
// frame. A header cut short reads as io.ErrUnexpectedEOF, as io.ReadFull
// reports it.
func readHeader(r *bufio.Reader) ([5]byte, error) {
	var hdr [5]byte
	b, err := r.Peek(len(hdr))
	if err == nil {
		copy(hdr[:], b)
		_, err = r.Discard(len(hdr))
	} else if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return hdr, err
}

// Spec identifies one population a cluster hosts: the shape every process
// must agree on. Shards must already be normalized
// (population.Config.Normalized); the coordinator's transport takes care of
// that before any spec crosses the wire.
type Spec struct {
	ID       string
	Workload string
	Agents   int
	Shards   int
	Seed     int64
}

func encodeSpec(e *codec.Encoder, s Spec) {
	e.Str(s.ID)
	e.Str(s.Workload)
	e.Int(s.Agents)
	e.Int(s.Shards)
	e.Varint(s.Seed)
}

func decodeSpec(d *codec.Decoder) Spec {
	return Spec{
		ID:       d.Str(),
		Workload: d.Str(),
		Agents:   d.Int(),
		Shards:   d.Int(),
		Seed:     d.Varint(),
	}
}

// Minimum encoded sizes, in bytes, of the composite elements the frame
// bodies count (see codec.Decoder.Count): what a zero-valued element
// encodes to.
const (
	minMailboxSize  = 2                        // agent id, empty stimulus list
	minRoutedSize   = 1 + core.MinStimulusSize // target agent id, stimulus
	minExchangeSize = 38                       // 4 counters, an empty Online (33), empty message list
)

// span is one half-open interval [lo, hi) of shards or agents. A v4 worker
// may own several disjoint shard runs, so mail crosses the wire per
// interval list.
type span struct{ lo, hi int }

func (s span) String() string { return fmt.Sprintf("[%d, %d)", s.lo, s.hi) }

// encodeMail appends the non-empty mailboxes of the given agent intervals
// as (agent id, stimuli) pairs. Spans must be sorted and disjoint, so the
// pairs come out in agent id order regardless of placement.
//
//sacs:hotpath
func encodeMail(e *codec.Encoder, mail [][]core.Stimulus, spans []span) {
	boxes := 0
	for _, sp := range spans {
		for id := sp.lo; id < sp.hi; id++ {
			if len(mail[id]) > 0 {
				boxes++
			}
		}
	}
	e.Uvarint(uint64(boxes))
	for _, sp := range spans {
		for id := sp.lo; id < sp.hi; id++ {
			if len(mail[id]) == 0 {
				continue
			}
			e.Int(id)
			e.Uvarint(uint64(len(mail[id])))
			for _, st := range mail[id] {
				core.AppendStimulus(e, st)
			}
		}
	}
}

// decodeMailInto fills the non-empty boxes into mail (global-indexed,
// len agents) and returns the ids it touched so the caller can clear them
// cheaply after the tick. Every id must fall inside one of the owned
// agent intervals. Stimulus names and sources come from names; nothing
// decoded aliases d's buffer.
//
//sacs:hotpath
func decodeMailInto(d *codec.Decoder, mail [][]core.Stimulus, spans []span, touched []int, names *codec.Interner) ([]int, error) {
	boxes := d.Count(minMailboxSize)
	for i := 0; i < boxes; i++ {
		id := d.Int()
		n := d.Count(core.MinStimulusSize)
		if err := d.Err(); err != nil {
			return touched, err
		}
		owned := false
		for _, sp := range spans {
			if id >= sp.lo && id < sp.hi {
				owned = true
				break
			}
		}
		if !owned {
			return touched, fmt.Errorf("cluster: mailbox for agent %d outside owned ranges", id)
		}
		box := mail[id][:0]
		for j := 0; j < n; j++ {
			box = append(box, core.DecodeStimulus(d, names))
		}
		mail[id] = box
		touched = append(touched, id)
	}
	return touched, d.Err()
}

// encodeExchange appends one shard's tick result.
//
//sacs:hotpath
func encodeExchange(e *codec.Encoder, o *population.ShardExchange) {
	e.Int(o.Delivered)
	e.Int(o.Actions)
	e.Varint(o.StepNanos)
	e.Int(o.Steals)
	o.Observed.AppendState(e)
	e.Uvarint(uint64(len(o.Msgs)))
	for _, m := range o.Msgs {
		e.Int(m.To)
		core.AppendStimulus(e, m.Stim)
	}
}

// decodeTickReply decodes a worker's msgTickOK body into outs[s] for each
// shard s the coordinator routed to it, in order. Every routed message must
// target an agent of the population, [0, agents): the engine indexes its
// mailboxes by target, so a confused worker's out-of-range one must fail the
// tick (poisoning the engine) instead of crashing the coordinator. Stimulus
// names and sources come from names; nothing decoded aliases body.
func decodeTickReply(body []byte, shards []int, outs []*population.ShardExchange, agents int, names *codec.Interner) error {
	d := codec.NewDecoder(body)
	n := d.Count(minExchangeSize)
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(shards) {
		// The one way split ownership surfaces: a worker stepping more or
		// fewer shards than the coordinator routed to it.
		return fmt.Errorf("stepped %d shards, coordinator routed %d "+
			"(split ownership after a failed migration?)", n, len(shards))
	}
	for _, s := range shards {
		if err := decodeExchange(d, outs[s], agents, names); err != nil {
			return err
		}
	}
	return d.Finish()
}

// decodeExchange decodes one shard's tick result into the pooled o
// (reusing Msgs capacity between ticks), rejecting a message whose target
// lies outside [0, agents).
//
//sacs:hotpath
func decodeExchange(d *codec.Decoder, o *population.ShardExchange, agents int, names *codec.Interner) error {
	o.Delivered = d.Int()
	o.Actions = d.Int()
	o.StepNanos = d.Varint()
	o.Steals = d.Int()
	o.Observed.RestoreState(d)
	msgs := d.Count(minRoutedSize)
	if err := d.Err(); err != nil {
		return err
	}
	o.Msgs = o.Msgs[:0]
	for j := 0; j < msgs; j++ {
		to := d.Int()
		if to < 0 || to >= agents {
			return fmt.Errorf("message to agent %d outside population of %d", to, agents)
		}
		o.Msgs = append(o.Msgs, population.Routed{To: to, Stim: core.DecodeStimulus(d, names)})
	}
	return d.Err()
}
