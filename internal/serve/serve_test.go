package serve

import (
	"bytes"
	"context"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/core"
	"sacs/internal/experiments"
	"sacs/internal/population"
)

// gossip is the daemon's demo workload: the S2 checkpoint-friendly
// population, so the serve tests exercise the exact workload the S2
// experiment validates.
func gossip() Workload {
	return Workload{Name: "gossip", Build: experiments.S2Config}
}

func newTestServer(t *testing.T, dir string, every int) *Server {
	t.Helper()
	s, err := New(Options{Dir: dir, CheckpointEvery: every, Workloads: []Workload{gossip()}})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	return s
}

func demoSpec() Spec {
	return Spec{ID: "demo", Workload: "gossip", Agents: 64, Shards: 8, Seed: 5}
}

func TestServerValidation(t *testing.T) {
	if _, err := New(Options{Workloads: []Workload{gossip(), gossip()}}); err == nil {
		t.Fatal("duplicate workload accepted")
	}
	s := newTestServer(t, "", 0)
	if err := s.Add(Spec{ID: "x", Workload: "nope", Agents: 10}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := s.Add(Spec{ID: "", Workload: "gossip", Agents: 10}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := s.Add(demoSpec()); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := s.Add(demoSpec()); err == nil {
		t.Fatal("duplicate population id accepted")
	}
	if _, err := s.Checkpoint("demo"); err == nil {
		t.Fatal("checkpoint without a directory should fail")
	}
	if err := s.Resume(demoSpec()); err == nil {
		t.Fatal("resume without a directory should fail")
	}
}

// TestAddRefusesStaleSnapshots: a fresh Add must not silently coexist with
// an abandoned run's snapshot files — their higher ticks would shadow the
// fresh run's checkpoints at the next resume.
func TestAddRefusesStaleSnapshots(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, dir, 0)
	if err := a.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Advance("demo", 4); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, dir, 0)
	if err := b.Add(demoSpec()); err == nil || !strings.Contains(err.Error(), "existing snapshots") {
		t.Fatalf("Add over stale snapshots: want refusal, got %v", err)
	}
	if err := b.Resume(demoSpec()); err != nil {
		t.Fatalf("resume should still work: %v", err)
	}
}

// TestNewCleansOrphanedTempFiles: a crash mid-checkpoint leaves a Write
// temp file behind; server startup must sweep it.
func TestNewCleansOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "demo-t000000000009.ckpt.tmp1234")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	newTestServer(t, dir, 0)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived server startup: %v", err)
	}
}

// TestNewKeepsSnapshotsOfTempLikeIDs: a population id that merely
// contains ".ckpt.tmp" names real snapshots, not Write's orphans, so the
// startup sweep must keep them and the next start resume the population
// instead of starting it over at tick 0.
func TestNewKeepsSnapshotsOfTempLikeIDs(t *testing.T) {
	dir := t.TempDir()
	spec := demoSpec()
	spec.ID = "a.ckpt.tmp"
	a := newTestServer(t, dir, 0)
	if err := a.Add(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Advance(spec.ID, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	b := newTestServer(t, dir, 0)
	resumed, err := b.AddOrResume(spec)
	if err != nil || !resumed {
		t.Fatalf("AddOrResume after restart: resumed=%v err=%v, want a resume", resumed, err)
	}
	if st, err := b.Status(spec.ID); err != nil || st.Tick != 3 {
		t.Fatalf("resumed at tick %d (err %v), want 3", st.Tick, err)
	}
}

// TestRejectsIDsOutsideDir: an id that is not one file-name element would
// put its checkpoints outside the checkpoint directory, where the next
// start cannot find them, so every entry point rejects it.
func TestRejectsIDsOutsideDir(t *testing.T) {
	s := newTestServer(t, t.TempDir(), 0)
	for _, id := range []string{"../esc", "a/b", `a\b`, ".", ".."} {
		spec := demoSpec()
		spec.ID = id
		if err := s.Add(spec); err == nil {
			t.Errorf("Add accepted id %q", id)
		}
		if _, err := s.AddOrResume(spec); err == nil {
			t.Errorf("AddOrResume accepted id %q", id)
		}
		if err := s.Resume(spec); err == nil {
			t.Errorf("Resume accepted id %q", id)
		}
	}
}

// TestServiceResumeContinuity is the daemon-level resume contract: a
// population served by one Server — with external stimuli ingested along
// the way — that is checkpointed at shutdown and resumed by a *different*
// Server instance must end in exactly the state of a population that was
// never interrupted, external traffic included.
func TestServiceResumeContinuity(t *testing.T) {
	stim := func(tick int) core.Stimulus {
		return core.Stimulus{Name: "ext", Source: "client", Scope: core.Public,
			Value: float64(tick) * 1.5, Time: float64(tick)}
	}

	// Reference: one uninterrupted server.
	ref := newTestServer(t, t.TempDir(), 0)
	if err := ref.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	mustAdvance := func(s *Server, n int) {
		t.Helper()
		if _, err := s.Advance("demo", n); err != nil {
			t.Fatal(err)
		}
	}
	mustIngest := func(s *Server, tick int) {
		t.Helper()
		if _, err := s.Ingest("demo", 3, stim(tick), true); err != nil {
			t.Fatal(err)
		}
	}
	mustAdvance(ref, 5)
	mustIngest(ref, 5)
	mustAdvance(ref, 5)
	mustIngest(ref, 10)
	mustAdvance(ref, 10)
	refPath, err := ref.Checkpoint("demo")
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted service: first process.
	dir := t.TempDir()
	a := newTestServer(t, dir, 0)
	if err := a.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	mustAdvance(a, 5)
	mustIngest(a, 5)
	mustAdvance(a, 5)
	if err := a.CheckpointAll(); err != nil { // graceful shutdown
		t.Fatal(err)
	}

	// Second process: resume, deliver the remaining traffic, finish.
	b := newTestServer(t, dir, 0)
	resumed, err := b.AddOrResume(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("AddOrResume built fresh despite an existing checkpoint")
	}
	st, err := b.Status("demo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 10 || st.Ingested != 1 {
		t.Fatalf("resumed at tick %d with %d ingested, want 10 and 1", st.Tick, st.Ingested)
	}
	mustIngest(b, 10)
	mustAdvance(b, 10)
	resPath, err := b.Checkpoint("demo")
	if err != nil {
		t.Fatal(err)
	}

	refSnap, refMeta, err := checkpoint.Read(refPath)
	if err != nil {
		t.Fatal(err)
	}
	resSnap, resMeta, err := checkpoint.Read(resPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refSnap, resSnap) {
		t.Fatal("resumed population state differs from uninterrupted reference")
	}
	if !reflect.DeepEqual(refMeta, resMeta) {
		t.Fatalf("checkpoint metadata differs: %v vs %v", refMeta, resMeta)
	}
	refEnc, _ := checkpoint.EncodeBytes(refSnap, refMeta)
	resEnc, _ := checkpoint.EncodeBytes(resSnap, resMeta)
	if !bytes.Equal(refEnc, resEnc) {
		t.Fatal("resumed snapshot encodes to different bytes than the reference")
	}
}

func TestAutoCheckpointAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, CheckpointEvery: 3, Keep: 2, Workloads: []Workload{gossip()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 10); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status("demo")
	if st.LastCkpt < 9 {
		t.Fatalf("interval checkpointing lagged: last at tick %d after 10 ticks every 3", st.LastCkpt)
	}
	latest, err := checkpoint.Latest(dir, "demo")
	if err != nil {
		t.Fatalf("no checkpoint on disk: %v", err)
	}
	snap, _, err := checkpoint.Read(latest)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tick != st.LastCkpt {
		t.Fatalf("latest file at tick %d, status says %d", snap.Tick, st.LastCkpt)
	}
}

func TestRunShutdownCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, time.Millisecond) }()
	for {
		if st, _ := s.Status("demo"); st.Tick >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := checkpoint.Latest(dir, "demo"); err != nil {
		t.Fatalf("no shutdown checkpoint: %v", err)
	}
}

// TestHTTPAPI drives every endpoint of the daemon's HTTP surface.
func TestHTTPAPI(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d (%s)", path, resp.StatusCode, want, body)
		}
		return body
	}
	post := func(path, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d (%s)", path, resp.StatusCode, want, b)
		}
		return b
	}

	var health struct {
		OK          bool `json:"ok"`
		Populations int  `json:"populations"`
	}
	if err := json.Unmarshal(get("/healthz", 200), &health); err != nil || !health.OK || health.Populations != 1 {
		t.Fatalf("healthz = %+v err %v", health, err)
	}

	var list []Status
	if err := json.Unmarshal(get("/populations", 200), &list); err != nil || len(list) != 1 || list[0].ID != "demo" {
		t.Fatalf("populations list = %+v err %v", list, err)
	}

	post("/populations/demo/ticks?n=4", "", 200)
	var st Status
	if err := json.Unmarshal(get("/populations/demo", 200), &st); err != nil || st.Tick != 4 {
		t.Fatalf("status after 4 ticks = %+v err %v", st, err)
	}

	// Ingest an external stimulus, tick once, and confirm the target agent
	// absorbed it into its self-models.
	var ing struct {
		Queued    int `json:"queued"`
		DeliverAt int `json:"deliver_at_tick"`
	}
	body := post("/populations/demo/stimuli",
		`{"to": 7, "name": "pressure", "value": 42.5, "source": "sensor-9"}`, http.StatusAccepted)
	if err := json.Unmarshal(body, &ing); err != nil || ing.Queued != 1 || ing.DeliverAt != 4 {
		t.Fatalf("ingest = %+v err %v", ing, err)
	}
	post("/populations/demo/ticks", "", 200)

	explain := string(get("/populations/demo/agents/7/explain", 200))
	for _, want := range []string{"agent a000007", "stim/pressure", "models:", "meta:"} {
		if !strings.Contains(explain, want) {
			t.Fatalf("explanation missing %q:\n%s", want, explain)
		}
	}
	// The stimulus value must be visible in the agent's store.
	if got := s.pops["demo"].eng.Agent(7).Store().Value("stim/pressure", -1); got != 42.5 {
		t.Fatalf("stim/pressure = %v, want 42.5", got)
	}

	var ck struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(post("/populations/demo/checkpoint", "", 200), &ck); err != nil || ck.Path == "" {
		t.Fatalf("checkpoint = %+v err %v", ck, err)
	}
	if snap, _, err := checkpoint.Read(ck.Path); err != nil || snap.Tick != 5 {
		t.Fatalf("checkpoint file: tick %v err %v", snapTick(snap), err)
	}

	// Error paths.
	get("/populations/nope", http.StatusBadRequest)
	get("/populations/demo/agents/999/explain", http.StatusNotFound) // decided on the view, no worker round-trip
	get("/populations/demo/agents/x/explain", http.StatusBadRequest)
	post("/populations/demo/ticks?n=0", "", http.StatusBadRequest)
	post("/populations/demo/ticks?n=zillion", "", http.StatusBadRequest)
	post("/populations/demo/stimuli", `{"to": 7}`, http.StatusBadRequest)                                 // no name
	post("/populations/demo/stimuli", `{"to": 999, "name": "x"}`, http.StatusBadRequest)                  // bad target
	post("/populations/demo/stimuli", `{"to": 1, "name": "x", "scope": "secret"}`, http.StatusBadRequest) // bad scope
	post("/populations/nope/checkpoint", "", http.StatusBadRequest)
}

func snapTick(s *population.Snapshot) any {
	if s == nil {
		return "<nil>"
	}
	return s.Tick
}

// TestHTTPBatchIngest covers the batch form of POST .../stimuli: a JSON
// array is enqueued in order as one atomic pass, a bad element rejects the
// whole batch, and the single-object form keeps working identically.
func TestHTTPBatchIngest(t *testing.T) {
	s := newTestServer(t, "", 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d (%s)", path, resp.StatusCode, want, b)
		}
		return b
	}
	status := func() Status {
		t.Helper()
		st, err := s.Status("demo")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	var ing struct {
		Queued    int `json:"queued"`
		DeliverAt int `json:"deliver_at_tick"`
	}
	body := post("/populations/demo/stimuli", `[
		{"to": 3, "name": "pressure", "value": 10},
		{"to": 3, "name": "pressure", "value": 20},
		{"to": 5, "name": "humidity", "value": 0.7, "scope": "private"}
	]`, http.StatusAccepted)
	if err := json.Unmarshal(body, &ing); err != nil || ing.Queued != 3 || ing.DeliverAt != 0 {
		t.Fatalf("batch ingest = %+v err %v", ing, err)
	}
	if got := status().Ingested; got != 3 {
		t.Fatalf("ingested = %d, want 3", got)
	}
	post("/populations/demo/ticks", "", 200)

	// In-order delivery: the EWMA seeds on the first observation (10) and
	// then folds the second (20) in, so order is observable in the value.
	a3 := s.pops["demo"].eng.Agent(3)
	e := a3.Store().Get("stim/pressure")
	if e == nil || e.Updates() != 2 {
		t.Fatalf("agent 3 absorbed %v updates, want 2", e)
	}
	if v := e.Value(); !(v > 10 && v < 20) {
		t.Fatalf("stim/pressure = %v: EWMA of (10, 20) in order must land strictly between", v)
	}
	if got := s.pops["demo"].eng.Agent(5).Store().Value("stim/humidity", -1); got != 0.7 {
		t.Fatalf("agent 5 stim/humidity = %v, want 0.7", got)
	}

	// Atomicity: one out-of-range element rejects the whole batch and
	// leaves no partial state.
	before := status().Ingested
	post("/populations/demo/stimuli", `[
		{"to": 1, "name": "ok", "value": 1},
		{"to": 9999, "name": "bad", "value": 2}
	]`, http.StatusBadRequest)
	post("/populations/demo/stimuli", `[{"to": 1, "name": "ok"}, {"to": 2}]`, http.StatusBadRequest)
	if got := status().Ingested; got != before {
		t.Fatalf("failed batch leaked ingested count: %d -> %d", before, got)
	}
	post("/populations/demo/ticks", "", 200)
	if got := s.pops["demo"].eng.Agent(1).Store().Value("stim/ok", -1); got != -1 {
		t.Fatal("rejected batch still delivered its valid prefix")
	}

	// Degenerate bodies.
	post("/populations/demo/stimuli", `[]`, http.StatusBadRequest)
	post("/populations/demo/stimuli", `not json`, http.StatusBadRequest)
	post("/populations/demo/stimuli", strings.Repeat(" ", maxStimuliBody+2), http.StatusRequestEntityTooLarge)
}

// TestCheckpointAllocationBounded guards the checkpoint write path's
// allocation: an in-process population streams its runs into the file
// through a few reused buffers, so one checkpoint allocates less than the
// file it produces, never a copy of the whole state.
func TestCheckpointAllocationBounded(t *testing.T) {
	s := newTestServer(t, t.TempDir(), 0)
	if err := s.Add(Spec{ID: "demo", Workload: "gossip", Agents: 256, Shards: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 40); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	path, err := s.Checkpoint("demo")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	alloc, size := after.TotalAlloc-before.TotalAlloc, uint64(fi.Size())
	t.Logf("checkpoint of %d bytes allocated %d bytes (%.2fx)", size, alloc, float64(alloc)/float64(size))
	if alloc > size {
		t.Fatalf("checkpoint of %d bytes allocated %d bytes (%.2fx), want at most 1x",
			size, alloc, float64(alloc)/float64(size))
	}
}

// TestResumeAllocationBounded is the resume half: reading that checkpoint
// back and restoring the population from it allocates at most 3.5 times
// the file — the payload buffer, the freshly built agents and their
// restored state, with agent state read straight from the payload rather
// than through a decoded copy of it.
func TestResumeAllocationBounded(t *testing.T) {
	s := newTestServer(t, t.TempDir(), 0)
	spec := Spec{ID: "demo", Workload: "gossip", Agents: 256, Shards: 16, Seed: 1}
	if err := s.Add(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 40); err != nil {
		t.Fatal(err)
	}
	path, err := s.Checkpoint("demo")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gossip().Build(spec.Agents, spec.Shards, spec.Seed, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, _, err := checkpoint.Read(path)
	if err == nil {
		_, err = population.Restore(cfg, snap)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, size := after.TotalAlloc-before.TotalAlloc, uint64(fi.Size())
	t.Logf("resume of %d bytes allocated %d bytes (%.2fx)", size, alloc, float64(alloc)/float64(size))
	if alloc > 7*size/2 {
		t.Fatalf("resume of %d bytes allocated %d bytes (%.2fx), want at most 3.5x",
			size, alloc, float64(alloc)/float64(size))
	}
}
