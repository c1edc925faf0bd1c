// A streamed snapshot (Engine.StreamSnapshot into checkpoint.WriteStream)
// must leave the bytes of the materialised one on every pool, and a stream
// that fails part way must fail whole: its error returned, no file left
// behind, no encoding job left running.
package population_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// streamWorkers are the pools a stream is checked on; 0 is a nil pool,
// which encodes and writes shard by shard.
var streamWorkers = []int{0, 1, 2, 4}

// newPool returns a pool of workers (nil for 0) and its Close.
func newPool(workers int) (*runner.Pool, func()) {
	if workers == 0 {
		return nil, func() {}
	}
	p := runner.New(workers)
	return p, p.Close
}

func TestStreamSnapshotBytesEqualSnapshot(t *testing.T) {
	meta := map[string]string{"workload": "s2", "id": "stream"}
	for _, c := range []struct{ agents, shards int }{
		{64, 16}, // more shards than a 4-worker pool has runs in flight
		{3, 8},   // fewer agents than shards: Config clamps to one agent per shard
		{5, 1},
	} {
		for _, workers := range streamWorkers {
			name := fmt.Sprintf("agents=%d/shards=%d/workers=%d", c.agents, c.shards, workers)
			pool, closePool := newPool(workers)
			eng := population.New(experiments.S2Config(c.agents, c.shards, 5, pool))
			eng.Run(6)
			if err := eng.Enqueue(c.agents-1, core.Stimulus{Name: "ext", Value: 2.5, Time: 6}); err != nil {
				t.Fatal(err)
			}
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", name, err)
			}
			if len(snap.Mail[c.agents-1]) == 0 {
				t.Fatalf("%s: no pending mail to stream", name)
			}
			want, err := checkpoint.EncodeBytes(snap, meta)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), checkpoint.FileName("stream", eng.Ticks()))
			err = checkpoint.WriteStream(path, eng.StreamSnapshot, meta)
			closePool()
			if err != nil {
				t.Fatalf("%s: streamed write: %v", name, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: streamed file (%d bytes) differs from EncodeBytes(Snapshot()) (%d bytes)",
					name, len(got), len(want))
			}
		}
	}
}

// poolWorkers counts the goroutines in a runner pool's worker loop.
func poolWorkers() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("sacs/internal/runner.(*Pool).worker("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settle polls count, for up to ten seconds, until it gives want, and
// returns the last count.
func settle(count func() int, want int) int {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := count(); n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamSnapshotFailsWhole fails a stream after some runs were
// written, once by an agent that cannot export and once by the sink. The
// goroutine baseline is taken once only the pool's own workers are left:
// when Close returns, a closed pool's workers have called Done but may not
// have exited yet. After a failed stream the count must return to it.
func TestStreamSnapshotFailsWhole(t *testing.T) {
	const agents, shards = 64, 8
	errSink := errors.New("disk full")
	for _, workers := range streamWorkers {
		pool, closePool := newPool(workers)
		eng := population.New(opaqueConfig(agents, shards, map[int]bool{45: true}, pool)) // shard 5
		eng.Run(3)
		if n, want := settle(poolWorkers, max(workers-1, 0)), max(workers-1, 0); n != want {
			t.Fatalf("workers=%d: %d pool workers running, want this pool's %d", workers, n, want)
		}
		baseline := runtime.NumGoroutine()
		check := func(what string, stream func(population.Sink) error, want func(error) bool) {
			t.Helper()
			dir := t.TempDir()
			err := checkpoint.WriteStream(filepath.Join(dir, checkpoint.FileName("opaque", 3)), stream, nil)
			if !want(err) {
				t.Errorf("workers=%d, %s: error = %v", workers, what, err)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("workers=%d, %s: left %d files behind, first %s", workers, what, len(left), left[0].Name())
			}
			if n := settle(runtime.NumGoroutine, baseline); n != baseline {
				t.Errorf("workers=%d, %s: %d goroutines after the failed stream, %d before", workers, what, n, baseline)
			}
		}
		check("agent export error", eng.StreamSnapshot, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "agent 45 state")
		})
		runs := 0
		failAfter3 := func(k population.Sink) error {
			return eng.StreamSnapshot(population.Sink{Head: k.Head, Run: func(run []byte) error {
				if runs++; runs > 3 {
					return errSink
				}
				return k.Run(run)
			}})
		}
		check("sink error", failAfter3, func(err error) bool { return errors.Is(err, errSink) })
		closePool()
	}
}
