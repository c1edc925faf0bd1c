package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sacs/internal/serve"
)

func testMix() mixParams {
	p := mixLoad
	p.window = 2 * time.Second
	return p
}

func TestMixScheduleReplays(t *testing.T) {
	a, err := newMixSchedule(7, testMix())
	if err != nil {
		t.Fatal(err)
	}
	b, err := newMixSchedule(7, testMix())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	c, err := newMixSchedule(8, testMix())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Fatal("different seeds drew the same schedule")
	}
}

func TestMixScheduleShape(t *testing.T) {
	p := testMix()
	s, err := newMixSchedule(1, p)
	if err != nil {
		t.Fatal(err)
	}
	want := p.rate * p.window.Seconds()
	if n := float64(len(s.reqs)); n < 0.9*want || n > 1.1*want {
		t.Fatalf("%v requests in %v at %v/s", n, p.window, p.rate)
	}
	var kinds [opKinds]int
	prev := time.Duration(-1)
	for i, r := range s.reqs {
		if r.due < prev || r.due >= p.window {
			t.Fatalf("request %d due at %v (previous %v, window %v)", i, r.due, prev, p.window)
		}
		prev = r.due
		if r.conn != i%p.conns {
			t.Fatalf("request %d on connection %d", i, r.conn)
		}
		if (r.kind == opIngest) != (len(r.body) > 0) {
			t.Fatalf("request %d: kind %v with %d body bytes", i, r.kind, len(r.body))
		}
		kinds[r.kind]++
	}
	n := float64(len(s.reqs))
	if share := float64(kinds[opExplain]) / n; share < 0.1 || share > 0.2 {
		t.Fatalf("explain share %v", share)
	}
	if share := float64(kinds[opIngest]) / n; share < 0.1 || share > 0.2 {
		t.Fatalf("ingest share %v", share)
	}
	// Due at every/2 + k·every for every k that lands inside the window.
	if got, want := len(s.advances), int(math.Ceil(float64(p.window-p.advanceEvery/2)/float64(p.advanceEvery))); got != want {
		t.Fatalf("%d advances, want %d", got, want)
	}
}

func TestIngestBatchesReplay(t *testing.T) {
	draw := func(seed int64) [][]serve.IngestItem {
		rng := rand.New(rand.NewSource(seed))
		var out [][]serve.IngestItem
		for tick := 0; tick < 3; tick++ {
			out = append(out, ingestBatches(rng, agents, ciPerTick, ciBatchSize)...)
		}
		return out
	}
	a, b := draw(3), draw(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different ingest")
	}
	if reflect.DeepEqual(a, draw(4)) {
		t.Fatal("different seeds drew the same ingest")
	}
	if len(a) != 3*ciPerTick/ciBatchSize {
		t.Fatalf("%d batches for 3 ticks", len(a))
	}
	rng := rand.New(rand.NewSource(1))
	sizes := ingestBatches(rng, 10, 130, 64)
	if len(sizes) != 3 || len(sizes[2]) != 2 {
		t.Fatalf("130 stimuli in batches of 64 split as %d batches", len(sizes))
	}
}

func TestClusterIngestTicks(t *testing.T) {
	// The tick count is fixed by --seconds alone, in whole batches.
	for _, c := range []struct {
		window time.Duration
		want   int
	}{{10 * time.Second, 1400}, {time.Second, 100}, {100 * time.Millisecond, 100}, {2500 * time.Millisecond, 400}} {
		if got := ciTicks(c.window); got != c.want {
			t.Errorf("ciTicks(%v) = %d, want %d", c.window, got, c.want)
		}
	}
}
