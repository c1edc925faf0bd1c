package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"testing"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// The fuzzed worker hosts shards [0, 2) of a 4-shard, 16-agent population.
const (
	fzAgents = 16
	fzShards = 4
)

// fuzzWorkload is testBuild refusing to grow past the fuzz population: a
// worker builds whatever shape its coordinator's init names, so a mutated
// init must not ask the fuzzing process for an arbitrarily large
// population. A larger spec fails the worker's shape check instead.
var fuzzWorkload = Workload{Name: "gossip", Build: func(agents, shards int, seed int64, pool *runner.Pool) population.Config {
	return testBuild(min(agents, fzAgents), shards, seed, pool)
}}

func fuzzInitBody(lo, hi int) []byte {
	e := codec.NewEncoder()
	e.Uvarint(protocolVersion)
	encodeSpec(e, Spec{ID: "p", Workload: "gossip", Agents: fzAgents, Shards: fzShards, Seed: tSeed})
	e.Int(lo)
	e.Int(hi)
	return e.Bytes()
}

// fuzzWorker returns a fresh worker hosting shards [0, 2) of population
// "p" at attach epoch 1, so every fuzz input starts from the same state.
func fuzzWorker(t testing.TB, ln net.Listener) *Worker {
	w, err := NewWorker(ln, nil, []Workload{fuzzWorkload})
	if err != nil {
		t.Fatal(err)
	}
	w.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if rt, body := w.handle(msgInit, fuzzInitBody(0, 2), nil); rt != msgOK {
		t.Fatalf("fuzz worker init: %s", codec.NewDecoder(body).Str())
	}
	return w
}

// fuzzRequest starts a post-init request body for population "p" at the
// fuzz worker's epoch.
func fuzzRequest() *codec.Encoder {
	e := codec.NewEncoder()
	e.Str("p")
	e.Uvarint(1)
	return e
}

// FuzzWorkerRequest: any request type and body either succeeds or earns an
// error reply; none may panic a handler (Worker.handle turns a panic into a
// "worker panic" error, which this target counts as a failure).
func FuzzWorkerRequest(f *testing.F) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer ln.Close()

	// The malformed requests of TestWorkerSurvivesMalformedRequests.
	ghost := codec.NewEncoder()
	ghost.Str("ghost")
	ghost.Int(0)
	ghost.Uvarint(0)
	f.Add(byte(msgTick), ghost.Bytes())
	f.Add(byte(msgInit), []byte{protocolVersion})
	v99 := codec.NewEncoder()
	v99.Uvarint(99)
	encodeSpec(v99, testSpec("v"))
	v99.Int(0)
	v99.Int(1)
	f.Add(byte(msgInit), v99.Bytes())

	// A valid body of every request type.
	snap, err := population.New(testBuild(fzAgents, fzShards, tSeed, nil)).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	state := func(lo, hi int) *population.RangeState {
		rs, err := snap.Range(lo, hi)
		if err != nil {
			f.Fatal(err)
		}
		return rs
	}
	f.Add(byte(msgPing), []byte(nil))
	f.Add(byte(msgInit), fuzzInitBody(2, 4))
	f.Add(byte(msgInit), fuzzInitBody(0, 0))
	install := fuzzRequest()
	checkpoint.AppendRange(install, state(0, 2))
	f.Add(byte(msgInstall), install.Bytes())
	tick := fuzzRequest()
	tick.Int(0)
	tick.Uvarint(1)
	tick.Int(3)
	tick.Uvarint(1)
	core.AppendStimulus(tick, extStim(0))
	f.Add(byte(msgTick), tick.Bytes())
	export := fuzzRequest() // an export drains each hosted run whole
	export.Int(0)
	export.Int(2)
	f.Add(byte(msgDrain), export.Bytes())
	explain := fuzzRequest()
	explain.Int(3)
	explain.F64(0)
	f.Add(byte(msgExplain), explain.Bytes())
	drain := fuzzRequest()
	drain.Int(1)
	drain.Int(2)
	f.Add(byte(msgDrain), drain.Bytes())
	adopt := fuzzRequest()
	checkpoint.AppendRange(adopt, state(2, 4))
	f.Add(byte(msgAdopt), adopt.Bytes())
	release := fuzzRequest()
	release.Int(0)
	release.Int(1)
	f.Add(byte(msgRelease), release.Bytes())
	f.Add(byte(msgDrop), fuzzRequest().Bytes())
	// An adopt whose last run frame is cut short: its checksum is missing.
	f.Add(byte(msgAdopt), adopt.Bytes()[:adopt.Len()-2])

	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		w := fuzzWorker(t, ln)
		if rt, rbody := w.handle(msgType(typ), body, new(codec.Encoder)); rt == msgErr {
			if msg := codec.NewDecoder(rbody).Str(); strings.Contains(msg, "worker panic") {
				t.Fatalf("%s request: %s", msgName(msgType(typ)), msg)
			}
		}
	})
}

// FuzzTickReply: the coordinator's tick-reply decoder returns an error or
// exchanges whose every message targets an agent of the population.
func FuzzTickReply(f *testing.F) {
	shards := []int{1, 3} // the shards routed to the replying worker
	reply := func(to int) []byte {
		e := codec.NewEncoder()
		e.Uvarint(uint64(len(shards)))
		for range shards {
			encodeExchange(e, &population.ShardExchange{Delivered: 2, Actions: 1, StepNanos: 1000,
				Msgs: []population.Routed{{To: to, Stim: extStim(1)}}})
		}
		return e.Bytes()
	}
	f.Add(reply(fzAgents - 1))
	f.Add(reply(fzAgents))
	f.Add(reply(-1))
	f.Add([]byte{})
	f.Add([]byte{3})

	f.Fuzz(func(t *testing.T, body []byte) {
		outs := make([]*population.ShardExchange, fzShards)
		for s := range outs {
			outs[s] = &population.ShardExchange{}
		}
		if err := decodeTickReply(body, shards, outs, fzAgents, new(codec.Interner)); err != nil {
			return
		}
		for _, s := range shards {
			for _, m := range outs[s].Msgs {
				if m.To < 0 || m.To >= fzAgents {
					t.Fatalf("shard %d: accepted a message to agent %d of %d", s, m.To, fzAgents)
				}
			}
		}
	})
}

// readFrameAllocLimit bounds what reading one frame may allocate: twice
// the bytes present plus one of codec.ReadN's 4 MiB chunks, never the
// size a header declares.
func readFrameAllocLimit(present int) uint64 { return uint64(2*present + 4<<20 + 64<<10) }

// TestReadFrameLyingHeaderAllocatesLittle: a 20-byte stream whose header
// declares a maxFrame-sized frame must fail having allocated one read
// chunk, not the gigabyte the header claims — also when the frame is a
// tick, whose body would go to the scratch buffer, which stays as it was.
func TestReadFrameLyingHeaderAllocatesLittle(t *testing.T) {
	for _, typ := range []msgType{msgRange, msgTick, msgTickOK} {
		stream := make([]byte, 20)
		binary.LittleEndian.PutUint32(stream, maxFrame)
		stream[4] = byte(typ)
		scratch := make([]byte, 0, 8)
		br := bufio.NewReader(bytes.NewReader(stream))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readFrame(br, &scratch)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a truncated frame was accepted", msgName(typ))
		}
		if total, limit := after.TotalAlloc-before.TotalAlloc, readFrameAllocLimit(len(stream)); total > limit {
			t.Fatalf("%s: a %d-byte stream declaring %d bytes allocated %d bytes, want at most %d",
				msgName(typ), len(stream), maxFrame, total, limit)
		}
		if cap(scratch) != 8 {
			t.Fatalf("%s: a truncated frame changed the scratch buffer's capacity 8 to %d", msgName(typ), cap(scratch))
		}
	}
}

// frames spells the given (type, body length) frames back to back, each
// body filled with its frame's index.
func frames(f testing.TB, spec ...[2]int) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	for i, fr := range spec {
		if err := writeFrame(w, msgType(fr[0]), bytes.Repeat([]byte{byte(i)}, fr[1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	return b.Bytes()
}

// frame spells one frame as writeFrame writes it.
func frame(t msgType, body []byte) ([]byte, error) {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeFrame(w, t, body); err != nil {
		return nil, err
	}
	err := w.Flush()
	return b.Bytes(), err
}

// FuzzReadFrame: any byte stream, read frame by frame through one scratch
// buffer as a connection reads it, gives frames that writeFrame spells
// exactly as the stream ran, then an error or the stream's end. Reading a
// frame allocates no more than readFrameAllocLimit of the bytes left. Only
// a tick body lands in the scratch buffer; the buffer is replaced only by a
// tick body too large for it that arrived whole, so neither a failed read
// nor any other frame changes it.
func FuzzReadFrame(f *testing.F) {
	valid, err := frame(msgTick, fuzzRequest().Bytes())
	if err != nil {
		f.Fatal(err)
	}
	lying := make([]byte, 20)
	binary.LittleEndian.PutUint32(lying, maxFrame)
	f.Add(valid)
	f.Add(lying)
	f.Add([]byte{1, 0, 0, 0, byte(msgPing)})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	// A tick larger than the (empty) buffer, then a smaller one into it, a
	// reply, a range beside them, and a tick header that lies.
	tk, tok, rng := int(msgTick), int(msgTickOK), int(msgRange)
	f.Add(frames(f, [2]int{tk, 300}, [2]int{tk, 40}, [2]int{tok, 300}, [2]int{rng, 20}, [2]int{tok, 600}))
	f.Add(append(frames(f, [2]int{tok, 64}, [2]int{tk, 8}), lying[:4]...))
	tickLie := append(frames(f, [2]int{tk, 16}), lying...)
	tickLie[len(tickLie)-len(lying)+4] = byte(msgTick)
	f.Add(tickLie)

	f.Fuzz(func(t *testing.T, stream []byte) {
		var scratch []byte
		r := bytes.NewReader(stream)
		br := bufio.NewReader(r) // as a connection reads: the production header path
		for {
			pos, had := len(stream)-r.Len()-br.Buffered(), cap(scratch)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			typ, body, err := readFrame(br, &scratch)
			runtime.ReadMemStats(&after)
			if total, limit := after.TotalAlloc-before.TotalAlloc, readFrameAllocLimit(len(stream)-pos); total > limit {
				t.Fatalf("a %d-byte rest of stream allocated %d bytes, want at most %d", len(stream)-pos, total, limit)
			}
			if err != nil {
				if cap(scratch) != had {
					t.Fatalf("a failed read changed the scratch buffer's capacity %d to %d", had, cap(scratch))
				}
				return
			}
			again, err := frame(typ, body)
			if err != nil {
				t.Fatalf("writeFrame of a frame readFrame accepted: %v", err)
			}
			if !bytes.HasPrefix(stream[pos:], again) {
				t.Fatalf("frame %x re-spelled as %x", stream[pos:min(len(stream), pos+len(again))], again)
			}
			tick := typ == msgTick || typ == msgTickOK
			switch {
			case !tick && cap(scratch) != had:
				t.Fatalf("a %s frame changed the scratch buffer's capacity %d to %d", msgName(typ), had, cap(scratch))
			case tick && len(body) <= had && cap(scratch) != had:
				t.Fatalf("a %d-byte tick body replaced a %d-byte scratch buffer", len(body), had)
			case tick && len(body) > 0 && &body[0] != &scratch[:1][0]:
				t.Fatal("a tick body was not read into the scratch buffer")
			case !tick && len(body) > 0 && cap(scratch) > 0 && &body[0] == &scratch[:1][0]:
				t.Fatalf("a %s body aliases the scratch buffer", msgName(typ))
			}
		}
	})
}

// TestMinSizesMatchWire: the minimum sizes the frame decoders bound their
// counts by must be what a zero-valued element encodes to.
func TestMinSizesMatchWire(t *testing.T) {
	size := func(fn func(e *codec.Encoder)) int {
		e := codec.NewEncoder()
		fn(e)
		return len(e.Bytes())
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"mailbox", size(func(e *codec.Encoder) { e.Int(0); e.Uvarint(0) }), minMailboxSize},
		{"routed message", size(func(e *codec.Encoder) { e.Int(0); core.AppendStimulus(e, core.Stimulus{}) }), minRoutedSize},
		{"exchange", size(func(e *codec.Encoder) { encodeExchange(e, &population.ShardExchange{}) }), minExchangeSize},
	} {
		if c.got != c.want {
			t.Errorf("zero %s encodes to %d bytes, constant says %d", c.name, c.got, c.want)
		}
	}
}
