package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sacs/internal/obs"
)

// TestMetricsEndpointsAgreeWithStatus drives the HTTP surface end to end:
// after N advances and an ingest, GET /metrics, GET /debug/vars and
// GET /populations/{id} must all report the same tick count, and the serve
// plane's own series (ingest batches, request counts) must be present in
// the exposition.
func TestMetricsEndpointsAgreeWithStatus(t *testing.T) {
	s := newTestServer(t, t.TempDir(), 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/populations/demo/stimuli",
		`[{"to":0,"name":"ext","value":1},{"to":1,"name":"ext","value":2}]`); code != http.StatusAccepted {
		t.Fatalf("ingest = %d", code)
	}
	const ticks = 7
	if code := post("/populations/demo/ticks?n=7", ""); code != http.StatusOK {
		t.Fatalf("ticks = %d", code)
	}

	// /populations/{id}: the logical counters. Metrics are not copied into
	// the status body; the registry renders them below.
	code, body := get("/populations/demo")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status json: %v", err)
	}
	if st.Tick != ticks {
		t.Fatalf("status tick = %d, want %d", st.Tick, ticks)
	}
	if strings.Contains(body, `"metrics"`) {
		t.Fatalf("status body still embeds a metrics copy: %s", body)
	}

	// /metrics: the exposition reports the same tick count.
	code, expo := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, line := range []string{
		`sacs_population_ticks_total{pop="demo"} 7`,
		`sacs_population_tick{pop="demo"} 7`,
		`sacs_serve_ingest_batch_size_count{pop="demo"} 1`,
		`sacs_serve_stimuli_queued{pop="demo"} 0`,
		`# TYPE sacs_http_requests_total counter`,
		`# TYPE sacs_population_phase_seconds_total counter`,
		`sacs_population_shard_step_seconds_count{pop="demo"} ` + strconv.Itoa(ticks*st.Shards),
		`sacs_population_shard_cost_seconds{pop="demo",shard="0"}`,
	} {
		if !strings.Contains(expo, line) {
			t.Errorf("/metrics missing %q\n%s", line, expo)
		}
	}

	// /debug/vars: the JSON snapshot agrees too.
	code, varsBody := get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("vars json: %v", err)
	}
	if v := vars[`sacs_population_ticks_total{pop="demo"}`]; v != float64(ticks) {
		t.Fatalf("debug/vars ticks = %v, want %d", v, ticks)
	}
	hv, _ := vars[`sacs_population_shard_step_seconds{pop="demo"}`].(map[string]any)
	if n, _ := hv["count"].(float64); n != float64(ticks*st.Shards) {
		t.Fatalf("debug/vars shard-step count = %v, want %d", hv["count"], ticks*st.Shards)
	}

	// The request middleware counted the calls made above.
	_, expo2 := get("/metrics")
	if !strings.Contains(expo2, `sacs_http_requests_total{class="2xx",route="GET /metrics"} 1`) {
		t.Errorf("request counter for GET /metrics missing or wrong:\n%s", expo2)
	}
	if !strings.Contains(expo2, `sacs_http_requests_total{class="2xx",route="POST /populations/{id}/ticks"} 1`) {
		t.Errorf("request counter for ticks route missing:\n%s", expo2)
	}
}

// TestHTTPErrorClassCounted pins the middleware's status capture: a 400
// must land in the 4xx class, not 2xx.
func TestHTTPErrorClassCounted(t *testing.T) {
	s := newTestServer(t, "", 0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/populations/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	snap := s.Registry().Snapshot()
	if v := snap[`sacs_http_requests_total{class="4xx",route="GET /populations/{id}"}`]; v != 1.0 {
		t.Fatalf("4xx counter = %v, want 1", v)
	}
}

// TestStreamedCheckpointMetrics: an in-process population's checkpoint
// streams its runs into the file, and the engine's snapshot phase times
// that stream; each checkpoint counts once in the serve plane's
// checkpoint histogram.
func TestStreamedCheckpointMetrics(t *testing.T) {
	s := newTestServer(t, t.TempDir(), 0)
	if err := s.Add(demoSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 3); err != nil {
		t.Fatal(err)
	}
	const phase = `sacs_population_phase_seconds_total{phase="snapshot",pop="demo"}`
	read := func() (snapSecs, count float64) {
		t.Helper()
		m := s.Registry().Snapshot()
		snapSecs, ok := m[phase].(float64)
		if !ok {
			t.Fatalf("%s missing from the registry", phase)
		}
		h, _ := m[`sacs_serve_checkpoint_seconds{pop="demo"}`].(obs.HistogramValue)
		return snapSecs, float64(h.Count)
	}
	snap0, count0 := read()
	for i := 1; i <= 2; i++ {
		if _, err := s.Checkpoint("demo"); err != nil {
			t.Fatal(err)
		}
		snap, count := read()
		if snap <= snap0 || count != count0+1 {
			t.Fatalf("checkpoint %d: snapshot phase %v -> %v s, checkpoint count %v -> %v; want the phase to advance and the count to rise by one",
				i, snap0, snap, count0, count)
		}
		snap0, count0 = snap, count
	}
}
