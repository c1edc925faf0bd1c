package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sacs/internal/core"
	"sacs/internal/goals"
	"sacs/internal/population"
)

var (
	testGoalA = goals.NewSet("a", goals.Objective{Name: "load", Direction: goals.Minimize, Weight: 1})
	testGoalB = goals.NewSet("b", goals.Objective{Name: "load", Direction: goals.Maximize, Weight: 2})
)

// testConfig is a checkpoint-friendly full-stack population (mutable state
// in store/goals/processes/engine RNG only), so snapshots exercise every
// field of the wire format: goal switchers, time-awareness predictors,
// meta-monitor detectors, mailboxes.
func testConfig(agents, shards int, seed int64) population.Config {
	return population.Config{
		Name:   "codec",
		Agents: agents,
		Shards: shards,
		Seed:   seed,
		New: func(id int, rng *rand.Rand) *core.Agent {
			sw := goals.NewSwitcher(testGoalA)
			sw.ScheduleSwitch(8, testGoalB)
			var a *core.Agent
			a = core.New(core.Config{
				Name:  fmt.Sprintf("a%04d", id),
				Caps:  core.FullStack,
				Goals: sw,
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(now float64) float64 {
						return a.Store().Value("stim/load", 1) + rng.Float64() - 0.5
					})},
				ExplainDepth: -1,
			})
			return a
		},
		Emit: func(ctx *population.EmitContext) {
			if ctx.Rng.Float64() < 0.5 {
				ctx.Send((ctx.ID+1)%agents, core.Stimulus{
					Name: "load", Source: ctx.Agent.Name(), Scope: core.Public,
					Value: ctx.Agent.Store().Value("stim/load", 0), Time: ctx.Now,
				})
			}
		},
		Observe: func(id int, a *core.Agent) float64 { return a.Store().Value("stim/load", 0) },
	}
}

func testSnapshot(t *testing.T, ticks int) *population.Snapshot {
	t.Helper()
	e := population.New(testConfig(24, 4, 11))
	e.Run(ticks)
	s, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot(t, 12)
	meta := map[string]string{"workload": "codec", "id": "demo"}
	b, err := EncodeBytes(snap, meta)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, gotMeta, err := DecodeBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("decoded snapshot differs from original")
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Fatalf("decoded meta %v, want %v", gotMeta, meta)
	}

	// Equal states must encode to equal bytes: S2 and the resume tests
	// compare encoded snapshots directly.
	b2, err := EncodeBytes(got, gotMeta)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encoding a decoded snapshot produced different bytes")
	}
}

func TestDecodedSnapshotRestores(t *testing.T) {
	e := population.New(testConfig(24, 4, 11))
	e.Run(12)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	b, err := EncodeBytes(snap, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, _, err := DecodeBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	r, err := population.Restore(testConfig(24, 4, 11), got)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Both engines must continue identically through the wire format.
	for i := 0; i < 8; i++ {
		a, b := e.Tick(), r.Tick()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tick %d diverged after codec roundtrip:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	snap := testSnapshot(t, 6)
	good, err := EncodeBytes(snap, map[string]string{"k": "v"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		_, _, err := DecodeBytes(data)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}

	check("empty", nil)
	check("header only", good[:12])
	check("truncated payload", good[:len(good)/2])
	check("missing checksum", good[:len(good)-2])

	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x40
	check("bit flip mid-payload", flip)

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	check("bad magic", badMagic)

	badVersion := append([]byte(nil), good...)
	badVersion[8] = 0xFF
	check("unknown version", badVersion)

	// A version-1 file (unframed runs under one trailing checksum) is
	// refused by its header, before a byte of its payload is read.
	v1 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	if _, _, err := DecodeBytes(v1); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("version 1: want ErrCorrupt for an unsupported version, got %v", err)
	}

	trailing := append(append([]byte(nil), good...), 0xAA)
	if _, _, err := DecodeBytes(trailing); err != nil {
		t.Errorf("one snapshot then trailing bytes in the reader should still decode, got %v", err)
	}
}

func TestWriteReadLatestPrune(t *testing.T) {
	dir := t.TempDir()
	snap := testSnapshot(t, 5)

	var paths []string
	for _, tick := range []int{5, 40, 400} {
		p := filepath.Join(dir, FileName("demo", tick))
		if err := Write(p, snap, map[string]string{"tick": fmt.Sprint(tick)}); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		paths = append(paths, p)
	}
	// A second population's files must not be confused with demo's.
	if err := Write(filepath.Join(dir, FileName("other", 9999)), snap, nil); err != nil {
		t.Fatalf("write other: %v", err)
	}

	latest, err := Latest(dir, "demo")
	if err != nil {
		t.Fatalf("latest: %v", err)
	}
	if latest != paths[2] {
		t.Fatalf("latest = %s, want %s", latest, paths[2])
	}
	got, meta, err := Read(latest)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, snap) || meta["tick"] != "400" {
		t.Fatal("read-back snapshot or metadata differs")
	}

	if _, err := Latest(dir, "absent"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("latest for absent id: want ErrNotExist, got %v", err)
	}

	removed, err := Prune(dir, "demo", 1)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	if removed != 2 {
		t.Fatalf("prune removed %d, want 2", removed)
	}
	if _, err := os.Stat(paths[2]); err != nil {
		t.Fatal("prune deleted the newest snapshot")
	}
	if _, err := Latest(dir, "other"); err != nil {
		t.Fatal("prune of demo touched other population's files")
	}

	// An id that itself looks like another id plus a tick suffix must not
	// capture (or lose) the other id's files: "x-t5"'s snapshots are not
	// "x"'s, in either direction.
	if err := Write(filepath.Join(dir, FileName("x", 3)), snap, nil); err != nil {
		t.Fatal(err)
	}
	if err := Write(filepath.Join(dir, FileName("x-t5", 9)), snap, nil); err != nil {
		t.Fatal(err)
	}
	gotX, err := Latest(dir, "x")
	if err != nil || filepath.Base(gotX) != FileName("x", 3) {
		t.Fatalf("Latest(x) = %s, %v; want %s", gotX, err, FileName("x", 3))
	}
	if n, err := Prune(dir, "x", 1); err != nil || n != 0 {
		t.Fatalf("Prune(x) removed %d (%v), want 0 — it must not count x-t5's files", n, err)
	}
	if _, err := Latest(dir, "x-t5"); err != nil {
		t.Fatalf("Latest(x-t5): %v", err)
	}

	// A truncated file on disk must fail with ErrCorrupt through Read.
	data, _ := os.ReadFile(paths[2])
	if err := os.WriteFile(paths[2], data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(paths[2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read truncated file: want ErrCorrupt, got %v", err)
	}
}
