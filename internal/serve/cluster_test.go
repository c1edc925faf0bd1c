package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// elasticSpec is the admin-endpoint test population: enough shards (more
// than 4 per carrier) that the rebalance rule grows onto an admitted
// worker.
func elasticSpec() Spec {
	return Spec{ID: "demo", Workload: "gossip", Agents: 64, Shards: 16, Seed: 5}
}

// getJSON fetches url and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// postJSON POSTs body and decodes the JSON response into out.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestClusterAdminEndpoints drives the elastic admin plane over HTTP: a
// 2-worker cluster server grows onto a third worker admitted mid-run via
// POST /cluster/workers, POST /cluster/rebalance migrates shards onto it
// live, GET /cluster reports the placement — and the run's checkpoint
// stays byte-identical to an uninterrupted in-process server's, because a
// migration changes where shards are stepped and nothing else.
func TestClusterAdminEndpoints(t *testing.T) {
	ref := newTestServer(t, t.TempDir(), 0)
	if err := ref.Add(elasticSpec()); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	addrs, _ := startClusterWorkers(t, 2)
	s := newClusterServer(t, t.TempDir(), addrs)
	if err := s.Add(elasticSpec()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The /cluster surface is cluster-only: the in-process server says 400.
	if code := getJSON(t, refTS.URL+"/cluster", nil); code != http.StatusBadRequest {
		t.Fatalf("GET /cluster on in-process server = %d, want 400", code)
	}
	if code := postCode(t, refTS.URL+"/cluster/rebalance", ""); code != http.StatusBadRequest {
		t.Fatalf("POST /cluster/rebalance on in-process server = %d, want 400", code)
	}

	var st ClusterStatus
	if code := getJSON(t, ts.URL+"/cluster", &st); code != http.StatusOK {
		t.Fatalf("GET /cluster = %d", code)
	}
	if len(st.Addrs) != 2 || len(st.Populations) != 1 || st.Populations[0].ID != "demo" {
		t.Fatalf("cluster status = %+v", st)
	}
	if got := len(st.Populations[0].Owner); got != 16 {
		t.Fatalf("owner map covers %d shards, want 16", got)
	}
	total := 0
	for _, wp := range st.Populations[0].Workers {
		total += wp.Shards
	}
	if total != 16 {
		t.Fatalf("per-worker shard counts sum to %d, want 16", total)
	}

	// Malformed admits are caller mistakes.
	if code := postCode(t, ts.URL+"/cluster/workers", "{"); code != http.StatusBadRequest {
		t.Fatalf("bad admit body = %d, want 400", code)
	}
	if code := postCode(t, ts.URL+"/cluster/workers", `{"addr":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty admit address = %d, want 400", code)
	}

	// Drive both servers identically so the cluster has measured costs.
	drive := func(srv *Server) {
		t.Helper()
		if _, err := srv.Advance("demo", 5); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Ingest("demo", 3, extStim(5), true); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Advance("demo", 5); err != nil {
			t.Fatal(err)
		}
	}
	drive(ref)
	drive(s)

	// Admit a third worker mid-run; it joins every placement shard-less.
	w3addrs, _ := startClusterWorkers(t, 1)
	var admitted struct {
		Worker int    `json:"worker"`
		Addr   string `json:"addr"`
	}
	if code := postJSON(t, ts.URL+"/cluster/workers",
		fmt.Sprintf(`{"addr":%q}`, w3addrs[0]), &admitted); code != http.StatusOK {
		t.Fatalf("admit = %d", code)
	}
	if admitted.Worker != 2 {
		t.Fatalf("admitted slot = %d, want 2", admitted.Worker)
	}

	// Rebalance: 16 shards on 2 carriers is 8 per carrier, past the
	// placement rule's 4 — the new worker joins the carriers and the
	// smoothing pass migrates shards there, live.
	var reb struct {
		Total int `json:"total"`
	}
	if code := postJSON(t, ts.URL+"/cluster/rebalance", "", &reb); code != http.StatusOK {
		t.Fatalf("rebalance = %d", code)
	}
	if reb.Total < 1 {
		t.Fatalf("rebalance executed %d moves, want >= 1", reb.Total)
	}
	if code := getJSON(t, ts.URL+"/cluster", &st); code != http.StatusOK {
		t.Fatalf("GET /cluster after rebalance = %d", code)
	}
	landed := false
	for _, wi := range st.Populations[0].Owner {
		if wi == 2 {
			landed = true
		}
	}
	if !landed || len(st.Populations[0].Workers) != 3 || st.Populations[0].Workers[2].Shards == 0 {
		t.Fatalf("no shards landed on the admitted worker: %+v", st.Populations[0])
	}

	// Re-admitting a live worker that now owns shards must refuse: its
	// state would be silently replaced.
	if code := postCode(t, ts.URL+"/cluster/workers",
		fmt.Sprintf(`{"addr":%q}`, w3addrs[0])); code != http.StatusBadRequest {
		t.Fatalf("re-admit of a shard-owning worker = %d, want 400", code)
	}

	// The migrated run must still end byte-identical to the in-process one.
	if _, err := ref.Advance("demo", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance("demo", 5); err != nil {
		t.Fatal(err)
	}
	refPath, err := ref.Checkpoint("demo")
	if err != nil {
		t.Fatal(err)
	}
	cluPath, err := s.Checkpoint("demo")
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	cluBytes, err := os.ReadFile(cluPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, cluBytes) {
		t.Fatal("cluster checkpoint diverged from in-process after admit + rebalance")
	}

	// An unreachable admit address fails within its wait budget.
	start := time.Now()
	if code := postCode(t, ts.URL+"/cluster/workers",
		`{"addr":"127.0.0.1:1","wait_ms":200}`); code != http.StatusBadRequest {
		t.Fatalf("unreachable admit = %d, want 400", code)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("unreachable admit ignored its wait budget")
	}
}
