package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"sacs/internal/obs"
)

// getWithin performs a GET and fails the test if it does not complete
// within the deadline — the detector for a handler sneaking onto a lock a
// test goroutine is deliberately holding.
func getWithin(t *testing.T, url string, d time.Duration) (int, string) {
	t.Helper()
	type result struct {
		code int
		body string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			done <- result{code: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: string(b)}
	}()
	select {
	case r := <-done:
		if r.code < 0 {
			t.Fatalf("GET %s: %s", url, r.body)
		}
		return r.code, r.body
	case <-time.After(d):
		t.Fatalf("GET %s blocked longer than %s (handler took a lock it must not take)", url, d)
		return 0, ""
	}
}

// TestHealthzAndMetricsIgnoreServerLock pins the liveness contract: GET
// /healthz and GET /metrics must answer while s.mu is write-held (as it is
// for the whole of a slow cluster Add), because they are what the operator
// and the orchestrator look at to decide whether the process is alive.
func TestHealthzAndMetricsIgnoreServerLock(t *testing.T) {
	s := newTestServer(t, "", 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	code, body := getWithin(t, srv.URL+"/healthz", 2*time.Second)
	if code != http.StatusOK || !strings.Contains(body, `"populations":1`) {
		t.Fatalf("healthz under a held write lock = %d %q", code, body)
	}
	if code, _ := getWithin(t, srv.URL+"/metrics", 2*time.Second); code != http.StatusOK {
		t.Fatalf("metrics under a held write lock = %d", code)
	}
	if code, _ := getWithin(t, srv.URL+"/debug/vars", 2*time.Second); code != http.StatusOK {
		t.Fatalf("debug/vars under a held write lock = %d", code)
	}
}

// TestReadsIgnorePopulationLock is the deterministic statement of the
// tentpole: with the population's own lock held (as Advance holds it for a
// whole tick batch), GET /populations/{id} and a cached explain still
// answer, served from the published view.
func TestReadsIgnorePopulationLock(t *testing.T) {
	s := newTestServer(t, "", 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ExplainAt("demo", 5); err != nil { // prime the cache
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	h := s.pops["demo"]
	h.mu.Lock()
	defer h.mu.Unlock()

	code, body := getWithin(t, srv.URL+"/populations/demo", 2*time.Second)
	if code != http.StatusOK {
		t.Fatalf("status under a held population lock = %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tick != 3 || st.ViewTick != 3 {
		t.Fatalf("view-served status = tick %d view %d, want 3/3", st.Tick, st.ViewTick)
	}
	// The cached explanation is served without the lock, and the view tick
	// it describes is echoed in the header.
	code, _ = getWithin(t, srv.URL+"/populations/demo/agents/5/explain", 2*time.Second)
	if code != http.StatusOK {
		t.Fatalf("cached explain under a held population lock = %d", code)
	}
	// Out-of-range is decided on the view too: still answers, as 404.
	code, _ = getWithin(t, srv.URL+"/populations/demo/agents/999/explain", 2*time.Second)
	if code != http.StatusNotFound {
		t.Fatalf("out-of-range explain under a held population lock = %d, want 404", code)
	}
}

// TestStatusOverlays pins the between-barrier visibility rule: Ingested and
// Queued move the instant a batch is accepted (atomics overlaid on the
// view); everything else — Tick, counters — waits for the barrier swap.
func TestStatusOverlays(t *testing.T) {
	s := newTestServer(t, "", 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBatch("demo", []IngestItem{
		{To: 0, Stim: extStim(0)}, {To: 1, Stim: extStim(0)}, {To: 2, Stim: extStim(0)},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status("demo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 3 || st.Queued != 3 {
		t.Fatalf("pre-tick overlay: ingested %d queued %d, want 3/3", st.Ingested, st.Queued)
	}
	if st.Tick != 0 || st.ViewTick != 0 {
		t.Fatalf("pre-tick view: tick %d view %d, want 0/0", st.Tick, st.ViewTick)
	}
	if _, err := s.Advance("demo", 1); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Status("demo")
	if st.Queued != 0 || st.Tick != 1 || st.ViewTick != 1 || st.Ingested != 3 {
		t.Fatalf("post-tick view: %+v, want queued 0 tick 1 view 1 ingested 3", st)
	}
}

// TestExplainCachePerTick pins the explain economics: repeated polls of one
// agent cost one render per tick, the barrier invalidates wholesale, and
// the render/hit split is visible on the metrics plane.
func TestExplainCachePerTick(t *testing.T) {
	s := newTestServer(t, "", 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) float64 {
		v, _ := s.Registry().Snapshot()[name+`{pop="demo"}`].(float64)
		return v
	}
	var first string
	for i := 0; i < 5; i++ {
		text, tick, err := s.ExplainAt("demo", 7)
		if err != nil {
			t.Fatal(err)
		}
		if tick != 0 {
			t.Fatalf("explain view tick = %d, want 0", tick)
		}
		if i == 0 {
			first = text
		} else if text != first {
			t.Fatal("cached explain differs from the rendered one")
		}
	}
	if r, h := counter("sacs_serve_explain_renders_total"), counter("sacs_serve_explain_cache_hits_total"); r != 1 || h != 4 {
		t.Fatalf("5 polls: %v renders, %v hits; want 1 and 4", r, h)
	}
	if _, err := s.Advance("demo", 1); err != nil {
		t.Fatal(err)
	}
	if _, tick, err := s.ExplainAt("demo", 7); err != nil || tick != 1 {
		t.Fatalf("post-barrier explain: tick %d err %v, want tick 1", tick, err)
	}
	if r := counter("sacs_serve_explain_renders_total"); r != 2 {
		t.Fatalf("the barrier must invalidate the cache: %v renders, want 2", r)
	}
}

// TestExplainBudgetTruncates: a tight byte budget cuts the rendering with
// an explicit marker, and the cap is configurable per server.
func TestExplainBudgetTruncates(t *testing.T) {
	s, err := New(Options{Workloads: []Workload{gossip()}, ExplainBudget: 96})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	text, _, err := s.ExplainAt("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "[explain truncated to") {
		t.Fatalf("96-byte budget produced no truncation marker:\n%s", text)
	}
	if len(text) > 96+64 { // budget plus the marker line
		t.Fatalf("truncated explain is %d bytes for a 96-byte budget", len(text))
	}

	full, err := New(Options{Workloads: []Workload{gossip()}, ExplainBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if text, _, err := full.ExplainAt("demo", 0); err != nil || strings.Contains(text, "[explain truncated") {
		t.Fatalf("negative budget must disable the cap (err %v)", err)
	}
}

// TestTruncateExplainKeepsRunesWhole: explanations quote stimulus names and
// sources from ingest JSON, so they can be non-ASCII. With no newline in
// the back half of the budget the cut lands mid-line; at every budget the
// result must still be valid UTF-8 (it is served as text/plain;
// charset=utf-8) and carry the truncation marker.
func TestTruncateExplainKeepsRunesWhole(t *testing.T) {
	text := strings.Repeat("température ", 40)
	for budget := 1; budget < len(text); budget++ {
		got := truncateExplain(text, budget)
		if !utf8.ValidString(got) {
			t.Fatalf("budget %d: truncated explanation is not valid UTF-8: %q", budget, got)
		}
		if !strings.Contains(got, "[explain truncated to") {
			t.Fatalf("budget %d: no truncation marker: %q", budget, got)
		}
	}
}

// TestIngestOverload is the acceptance-criteria overload test: flooding
// stimuli past the budget sheds whole batches with 429 + Retry-After, the
// accepted prefix is never partially applied, the shed counter agrees
// across both metrics planes, and the next barrier reopens admission.
func TestIngestOverload(t *testing.T) {
	s, err := New(Options{Workloads: []Workload{gossip()}, MailboxBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	batch := func(n int) string {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf(`{"to":%d,"name":"ext","value":1}`, i)
		}
		return "[" + strings.Join(items, ",") + "]"
	}
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/populations/demo/stimuli", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := post(batch(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch = %d, want 202", resp.StatusCode)
	}
	// 8 pending + 8 > 10: the whole batch is shed — nothing applied, 429,
	// Retry-After present and a positive integer.
	resp := post(batch(8))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	st, _ := s.Status("demo")
	if st.Queued != 8 || st.Ingested != 8 {
		t.Fatalf("shed must be all-or-nothing: queued %d ingested %d, want 8/8", st.Queued, st.Ingested)
	}
	// A batch that still fits is admitted (shed is per batch, not a latch).
	if resp := post(batch(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting batch after a shed = %d, want 202", resp.StatusCode)
	}
	// The barrier drains the mailboxes and admission reopens.
	if _, err := s.Advance("demo", 1); err != nil {
		t.Fatal(err)
	}
	if resp := post(batch(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-barrier batch = %d, want 202", resp.StatusCode)
	}

	// Direct API spelling of the same contract.
	items := make([]IngestItem, 8)
	for i := range items {
		items[i] = IngestItem{To: i, Stim: extStim(1)}
	}
	if _, err := s.IngestBatch("demo", items); err == nil || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("IngestBatch past budget: want ErrOverloaded, got %v", err)
	}

	// Both metrics planes must agree on the shed count (16: two 8-batches),
	// and on the 4xx count for the stimuli route — the middleware is the
	// single accounting point, early returns included.
	sj, _ := s.Registry().Snapshot()[`sacs_serve_shed_total{pop="demo"}`].(float64)
	if sj != 16 {
		t.Fatalf("shed counter = %v, want 16", sj)
	}
	respM, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(respM.Body)
	respM.Body.Close()
	if !strings.Contains(string(expo), `sacs_serve_shed_total{pop="demo"} 16`) {
		t.Fatal("/metrics does not report the shed count /debug/vars reports")
	}
	var vars map[string]any
	respV, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(respV.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	respV.Body.Close()
	const routeKey = `sacs_http_requests_total{class="4xx",route="POST /populations/{id}/stimuli"}`
	shed4xx, _ := vars[routeKey].(float64)
	wantLine := fmt.Sprintf("%s %g", routeKey, shed4xx)
	if shed4xx < 1 {
		t.Fatalf("shed 429 not counted by the middleware: %v", vars[routeKey])
	}
	if !strings.Contains(string(expo), wantLine) {
		t.Fatalf("/metrics and /debug/vars disagree on %s (want %q)", routeKey, wantLine)
	}
}

// TestAdaptiveBudgetTightensUnderSkew pins the work-proxy coupling: with no
// fixed budget, admission is 4× the population size for uniform work and
// tightens toward 1× as the published p99/p50 skew grows.
func TestAdaptiveBudgetTightensUnderSkew(t *testing.T) {
	s := newTestServer(t, "", 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	h := s.pops["demo"]
	if got := s.effectiveBudget(h); got != 4*64 {
		t.Fatalf("fresh population budget = %d, want 4*agents = 256", got)
	}
	// Forge a skewed view (observation-only state, so this is safe): p99
	// 2× p50 → budget shrinks by the same factor, floored at 1× agents.
	v := *h.vs.published()
	v.st.WorkP50, v.st.WorkP99 = 100, 200
	h.vs.view.Store(&v)
	if got := s.effectiveBudget(h); got != 4*64/2 {
		t.Fatalf("skewed budget = %d, want 128", got)
	}
	v2 := v
	v2.st.WorkP99 = 100000 // extreme skew: floor at 1× agents
	h.vs.view.Store(&v2)
	if got := s.effectiveBudget(h); got != 64 {
		t.Fatalf("extreme-skew budget = %d, want the 1*agents floor", got)
	}
}

// TestUnmatchedRoutesAreCounted: the catch-all route makes the middleware
// account for requests that match nothing, so 404 traffic is visible on
// the metrics planes instead of silently absent.
func TestUnmatchedRoutesAreCounted(t *testing.T) {
	s := newTestServer(t, "", 0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmatched route = %d, want 404", resp.StatusCode)
	}
	v, _ := s.Registry().Snapshot()[`sacs_http_requests_total{class="4xx",route="/"}`].(float64)
	if v != 1 {
		t.Fatalf("catch-all 4xx counter = %v, want 1", v)
	}
}

// TestClusterExplain404WithoutWorkers pins the satellite fix: an
// out-of-range agent id on a cluster-hosted population is answered 404
// from the coordinator's published view — proven by killing every worker
// first, so any round-trip would error loudly instead.
func TestClusterExplain404WithoutWorkers(t *testing.T) {
	addrs, workers := startClusterWorkers(t, 2)
	s := newClusterServer(t, t.TempDir(), addrs)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 2); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		w.Close()
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	code, _ := getWithin(t, srv.URL+"/populations/demo/agents/999/explain", 2*time.Second)
	if code != http.StatusNotFound {
		t.Fatalf("out-of-range explain with dead workers = %d, want 404 (no round-trip)", code)
	}
	if _, _, err := s.ExplainAt("demo", -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("negative agent: want ErrNotFound, got %v", err)
	}
	// An in-range explain DOES need the worker — with all workers dead it
	// must fail host-side, proving the 404 above never left the process.
	if _, _, err := s.ExplainAt("demo", 3); err == nil || !errors.Is(err, ErrHost) {
		t.Fatalf("in-range explain with dead workers: want ErrHost, got %v", err)
	}
}

// TestReadHammerDuringClusterAdvance is the -race hammer: continuous
// Advance on a 2-worker cluster-hosted population while readers pound
// GET /populations/{id} and /explain over HTTP. Every read must succeed,
// reads must demonstrably land mid-tick (the reads-during-tick counter),
// and the view-age gauge must show the barrier kept publishing.
func TestReadHammerDuringClusterAdvance(t *testing.T) {
	addrs, _ := startClusterWorkers(t, 2)
	s := newClusterServer(t, t.TempDir(), addrs)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var ticking sync.WaitGroup
	ticking.Add(1)
	advanceDone := make(chan struct{})
	go func() {
		defer ticking.Done()
		defer close(advanceDone)
		for i := 0; i < 40; i++ {
			if _, err := s.Advance("demo", 2); err != nil {
				t.Errorf("advance: %v", err)
				return
			}
		}
	}()

	var reads, failures atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-advanceDone:
					return
				default:
				}
				url := srv.URL + "/populations/demo"
				if i%3 == seed%3 {
					url = fmt.Sprintf("%s/agents/%d/explain", url, (seed*17+i)%64)
				}
				resp, err := http.Get(url)
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				reads.Add(1)
			}
		}(r)
	}
	ticking.Wait()
	readers.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d reads failed during continuous Advance", f, reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("hammer made no reads")
	}
	snap := s.Registry().Snapshot()
	during, _ := snap[`sacs_serve_view_reads_during_tick_total{pop="demo"}`].(float64)
	if during == 0 {
		t.Fatal("no read landed while a tick was in flight — the read plane is still serialising behind Advance")
	}
	age, _ := snap[`sacs_serve_view_age_seconds{pop="demo"}`].(float64)
	if age < 0 || age > 30 {
		t.Fatalf("view-age gauge = %v, want a small non-negative age (the barrier kept publishing)", age)
	}
	st, err := s.Status("demo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 80 || st.ViewTick != 80 {
		t.Fatalf("after the hammer: tick %d view %d, want 80/80", st.Tick, st.ViewTick)
	}
}

// TestResumeAdmitsFullBudget pins that admission reads the one pending
// count Status reports. A population checkpointed with 4 stimuli queued and
// resumed into a fresh Server on the same registry starts at Queued 0 —
// restored mail was admitted when first accepted and is never counted
// again — and admits a whole budget's batch.
func TestResumeAdmitsFullBudget(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Workloads: []Workload{gossip()}, MailboxBudget: 10,
		Registry: obs.NewRegistry()}
	batch := func(n int) []IngestItem {
		items := make([]IngestItem, n)
		for i := range items {
			items[i] = IngestItem{To: i, Stim: extStim(0)}
		}
		return items
	}
	first, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := first.IngestBatch("demo", batch(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Checkpoint("demo"); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Resume(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if st, _ := resumed.Status("demo"); st.Queued != 0 {
		t.Fatalf("resumed Status.Queued = %d, want 0", st.Queued)
	}
	if _, err := resumed.IngestBatch("demo", batch(10)); err != nil {
		t.Fatalf("a full-budget batch after resume was refused: %v", err)
	}
	if st, _ := resumed.Status("demo"); st.Queued != 10 {
		t.Fatalf("Status.Queued after admitting 10 = %d, want 10", st.Queued)
	}
}
