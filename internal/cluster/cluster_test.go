package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/codec"
	"sacs/internal/core"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// testBuild is a checkpoint-friendly ring-gossip workload (store-backed
// random walk, cross-shard traffic every tick) local to this package: the
// cluster tests cannot use experiments.S2Config because experiments
// imports cluster for the S3 experiment, and an internal test file
// importing it back would be a test-induced import cycle. S3 itself runs
// the cluster against the real S2 workload.
func testBuild(agents, shards int, seed int64, pool *runner.Pool) population.Config {
	return population.Config{
		Name:   "wire-gossip",
		Agents: agents,
		Shards: shards,
		Seed:   seed,
		Pool:   pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			var a *core.Agent
			a = core.New(core.Config{
				Name: fmt.Sprintf("a%06d", id),
				Caps: core.Caps(core.LevelStimulus, core.LevelInteraction),
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(now float64) float64 {
						return a.Store().Value("stim/load", float64(id%7)) + rng.Float64() - 0.5
					})},
				ExplainDepth: 8,
			})
			return a
		},
		Emit: func(ctx *population.EmitContext) {
			load := ctx.Agent.Store().Value("stim/load", 0)
			stim := core.Stimulus{Name: "load", Source: ctx.Agent.Name(),
				Scope: core.Public, Value: load, Time: ctx.Now}
			ctx.Send((ctx.ID+1)%agents, stim)
			if agents > 1 && ctx.Rng.Float64() < 0.25 {
				ctx.Send((ctx.ID+1+ctx.Rng.Intn(agents-1))%agents, stim)
			}
		},
		Observe: func(id int, a *core.Agent) float64 {
			return a.Store().Value("stim/load", 0)
		},
	}
}

// startWorkers brings up n in-process workers on loopback TCP — the same
// code path `sawd -worker` runs, minus the process boundary (the CI
// cluster-e2e job covers real processes) — and returns their addresses.
func startWorkers(t *testing.T, n int) ([]string, []*Worker) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w, err := NewWorker(ln, nil, []Workload{{Name: "gossip", Build: testBuild}})
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
		workers[i] = w
	}
	return addrs, workers
}

func dialAll(t *testing.T, addrs []string) *Client {
	t.Helper()
	cl, err := Dial(addrs, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

const (
	tAgents = 96
	tShards = 8
	tSeed   = 11
)

func testSpec(id string) Spec {
	return Spec{ID: id, Workload: "gossip", Agents: tAgents, Shards: tShards, Seed: tSeed}
}

func extStim(tick int) core.Stimulus {
	return core.Stimulus{Name: "ext", Source: "client", Scope: core.Public,
		Value: float64(tick) * 1.5, Time: float64(tick)}
}

// TestClusterByteIdenticalToInProcess is the tentpole contract at test
// scale: a coordinator engine whose shards live on two TCP workers must
// produce, tick for tick, exactly the TickStats of the single-process
// engine — external ingest included — and its snapshot must encode to the
// identical bytes. Experiment S3 asserts the same end to end; this test
// pins it close to the seam and additionally exercises Explain and the
// snapshot→Install resume path across a fresh cluster.
func TestClusterByteIdenticalToInProcess(t *testing.T) {
	ref := population.New(testBuild(tAgents, tShards, tSeed, nil))

	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	const ticks = 30
	for i := 0; i < ticks; i++ {
		if i%7 == 0 {
			if err := ref.Enqueue(i%tAgents, extStim(i)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Enqueue(i%tAgents, extStim(i)); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Tick()
		got, err := eng.TickErr()
		if err != nil {
			t.Fatalf("cluster tick %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tick %d stats diverge:\nin-process %+v\ncluster    %+v", i, want, got)
		}
	}

	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cluSnap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refEnc, err := checkpoint.EncodeBytes(refSnap, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluEnc, err := checkpoint.EncodeBytes(cluSnap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refEnc, cluEnc) {
		t.Fatalf("cluster snapshot differs from in-process snapshot (%d vs %d bytes)", len(cluEnc), len(refEnc))
	}

	// Explanations must read identically wherever the agent lives.
	for _, id := range []int{0, tAgents/2 + 1, tAgents - 1} {
		want, err := ref.Explain(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Explain(id)
		if err != nil {
			t.Fatalf("cluster explain %d: %v", id, err)
		}
		if want != got {
			t.Fatalf("agent %d explanation diverges across the transport", id)
		}
	}

	// Resume leg: a fresh cluster restored from the snapshot (the
	// shard-granular Install path) must continue byte-identically.
	addrs2, _ := startWorkers(t, 2)
	cl2 := dialAll(t, addrs2)
	tr2, err := cl2.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := population.RestoreWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr2, cluSnap)
	if err != nil {
		t.Fatalf("restore over cluster: %v", err)
	}
	for i := 0; i < 10; i++ {
		want := ref.Tick()
		got, err := resumed.TickErr()
		if err != nil {
			t.Fatalf("resumed tick: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("resumed tick %d diverges", i)
		}
	}
	a, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := checkpoint.EncodeBytes(a, nil)
	eb, _ := checkpoint.EncodeBytes(b, nil)
	if !bytes.Equal(ea, eb) {
		t.Fatal("resumed cluster diverged from uninterrupted in-process run")
	}
}

// TestWorkerFailureMidRunPoisonsEngine: a dead worker must surface as a
// tick error, and the engine must refuse further ticks (the tick may have
// half-applied remotely) until rebuilt from a checkpoint.
func TestWorkerFailureMidRunPoisonsEngine(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	cl := dialAll(t, addrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TickErr(); err != nil {
		t.Fatalf("healthy tick: %v", err)
	}
	workers[1].Close() // worker "process" dies: listener and live conns gone
	if _, err := eng.TickErr(); err == nil {
		t.Fatal("tick over a dead worker succeeded")
	}
	if _, err := eng.TickErr(); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("engine not poisoned after transport failure: %v", err)
	}
	if _, err := eng.Snapshot(); err == nil {
		t.Fatal("snapshot over a dead worker succeeded")
	}
}

// TestStaleAttachEpochFailsLoudly is the split-brain guard: when a second
// coordinator initialises the same population id on the same workers, the
// first coordinator's state is gone — its next tick must be a loud error
// (which poisons its engine), never a silent 200 stepping replaced agents.
// The stale coordinator's shutdown must also not tear down the successor.
func TestStaleAttachEpochFailsLoudly(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	clA := dialAll(t, addrs)
	trA, err := clA.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	engA, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), trA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engA.TickErr(); err != nil {
		t.Fatal(err)
	}

	// The hijack: coordinator B attaches the same id.
	clB := dialAll(t, addrs)
	trB, err := clB.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	engB, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), trB)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := engA.TickErr(); err == nil || !strings.Contains(err.Error(), "stale attach epoch") {
		t.Fatalf("stale coordinator ticked without a loud failure: %v", err)
	}
	// A's shutdown must not destroy B's live population.
	engA.Close()
	if _, err := engB.TickErr(); err != nil {
		t.Fatalf("successor coordinator broken by stale coordinator's shutdown: %v", err)
	}
}

// TestTransportValidation covers attach-time error paths: unknown
// workloads, too many workers for the shard count, and bad specs.
func TestTransportValidation(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	cl := dialAll(t, addrs)

	if _, err := cl.NewTransport(Spec{ID: "x", Workload: "nope", Agents: 64, Shards: 8, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: %v", err)
	}
	if _, err := cl.NewTransport(Spec{ID: "x", Workload: "gossip", Agents: 64, Shards: 1, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "at least one shard") {
		t.Fatalf("too many workers: %v", err)
	}
	if _, err := cl.NewTransport(Spec{Workload: "gossip", Agents: 64}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := Dial(nil, time.Second); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, 100*time.Millisecond); err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if _, err := NewWorker(nil, nil, []Workload{{Name: "a", Build: testBuild}, {Name: "a", Build: testBuild}}); err == nil {
		t.Fatal("duplicate workload accepted")
	}
}

// TestFrameBounds pins the framing layer: round trip, and rejection of
// frames whose declared length exceeds the limit — a confused peer must
// fail cleanly, not OOM the worker.
func TestFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, msgPing, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(bufio.NewReader(&buf), nil)
	if err != nil || typ != msgPing || string(body) != "hello" {
		t.Fatalf("round trip = %d %q %v", typ, body, err)
	}

	// A forged header declaring a frame beyond maxFrame.
	forged := []byte{0xff, 0xff, 0xff, 0xff, byte(msgPing)}
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(forged)), nil); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame = %v, want %v", err, errFrameTooLarge)
	}
	// A zero-length frame (no type byte) is equally malformed.
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0, 0})), nil); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("empty frame = %v, want %v", err, errFrameTooLarge)
	}
	// A header cut short is an unexpected end, not a clean one.
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{1, 0, 0})), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(nil)), nil); err != io.EOF {
		t.Fatalf("empty stream = %v, want %v", err, io.EOF)
	}
}

// frameConn reads and writes frames on one connection, flushing each
// frame it writes.
type frameConn struct {
	r *bufio.Reader
	w *bufio.Writer
}

func newFrameConn(c net.Conn) frameConn {
	return frameConn{bufio.NewReader(c), bufio.NewWriter(c)}
}

func (f frameConn) write(t msgType, body []byte) error {
	if err := writeFrame(f.w, t, body); err != nil {
		return err
	}
	return f.w.Flush()
}

func (f frameConn) read() (msgType, []byte, error) { return readFrame(f.r, nil) }

// TestWorkerSurvivesMalformedRequests: a worker fed garbage must answer
// with errors (or drop the connection), never crash, and must keep serving
// the population for a well-behaved coordinator afterwards.
func TestWorkerSurvivesMalformedRequests(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	cl := dialAll(t, addrs)
	if _, err := cl.NewTransport(testSpec("p")); err != nil {
		t.Fatal(err)
	}

	rogue, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	fc := newFrameConn(rogue)
	// Tick for an unhosted population id.
	e := codec.NewEncoder()
	e.Str("ghost")
	e.Int(0)
	e.Uvarint(0)
	if err := fc.write(msgTick, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, body, err := fc.read()
	if err != nil || typ != msgErr {
		t.Fatalf("unhosted tick reply = %d %v", typ, err)
	}
	if d := codec.NewDecoder(body); !strings.Contains(d.Str(), "no population") {
		t.Fatal("error reply does not name the missing population")
	}
	// A truncated init body must produce an error, not a panic.
	if err := fc.write(msgInit, []byte{protocolVersion}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err = fc.read(); err != nil || typ != msgErr {
		t.Fatalf("truncated init reply = %d %v", typ, err)
	}
	// A wrong protocol version is refused by name.
	e = codec.NewEncoder()
	e.Uvarint(99)
	encodeSpec(e, testSpec("v"))
	e.Int(0)
	e.Int(1)
	if err := fc.write(msgInit, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, body, err = fc.read()
	if err != nil || typ != msgErr {
		t.Fatalf("version mismatch reply = %d %v", typ, err)
	}
	if d := codec.NewDecoder(body); !strings.Contains(d.Str(), "version") {
		t.Fatal("version error does not mention the version")
	}

	// The original population still ticks for its coordinator.
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), mustTransport(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TickErr(); err != nil {
		t.Fatalf("worker unusable after malformed traffic: %v", err)
	}
}

func mustTransport(t *testing.T, cl *Client) *Transport {
	t.Helper()
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTickReplyOutOfRangeTargetPoisons: a worker whose tick reply routes a
// message to an agent outside the population fails the tick — the engine
// is poisoned with an error — instead of crashing the coordinator on the
// mailbox index.
func TestTickReplyOutOfRangeTargetPoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// A confused worker: it attaches like a real one, then answers every
	// tick with one message per shard addressed to agent tAgents+3.
	reply := codec.NewEncoder()
	reply.Uvarint(tShards)
	for s := 0; s < tShards; s++ {
		encodeExchange(reply, &population.ShardExchange{Msgs: []population.Routed{{To: tAgents + 3, Stim: extStim(s)}}})
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fc := newFrameConn(c)
				for {
					typ, _, err := fc.read()
					if err != nil {
						return
					}
					rt, body := msgOK, []byte(nil)
					switch typ {
					case msgInit:
						e := codec.NewEncoder()
						e.Uvarint(1)
						body = e.Bytes()
					case msgTick:
						rt, body = msgTickOK, reply.Bytes()
					}
					if fc.write(rt, body) != nil {
						return
					}
				}
			}()
		}
	}()

	cl := dialAll(t, []string{ln.Addr().String()})
	eng, err := population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), mustTransport(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TickErr(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("agent %d outside population", tAgents+3)) {
		t.Fatalf("tick with an out-of-range target: err = %v", err)
	}
	if _, err := eng.TickErr(); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("engine not poisoned after the bad reply: %v", err)
	}
}

// TestInitRejectsOversizedPopulation: an init frame naming more than
// MaxAgents agents earns a "bad init" error before the worker calls the
// workload's Build, so no frame can make a worker construct an unbounded
// population.
func TestInitRejectsOversizedPopulation(t *testing.T) {
	builds := 0
	w, err := NewWorker(nil, nil, []Workload{{Name: "gossip",
		Build: func(agents, shards int, seed int64, pool *runner.Pool) population.Config {
			builds++
			return testBuild(agents, shards, seed, pool)
		}}})
	if err != nil {
		t.Fatal(err)
	}
	w.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	e := codec.NewEncoder()
	e.Uvarint(protocolVersion)
	encodeSpec(e, Spec{ID: "p", Workload: "gossip", Agents: MaxAgents + 1, Shards: 1, Seed: tSeed})
	e.Int(0)
	e.Int(1)
	typ, body := w.handle(msgInit, e.Bytes(), nil)
	if msg := codec.NewDecoder(body).Str(); typ != msgErr || !strings.Contains(msg, "bad init") {
		t.Fatalf("init of %d agents: reply %d %q, want a bad init error", MaxAgents+1, typ, msg)
	}
	if builds != 0 {
		t.Fatalf("the worker called Build %d times for a rejected init", builds)
	}
}
