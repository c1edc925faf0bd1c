package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzStimuliBody: any body POSTed to /populations/{id}/stimuli is either
// accepted (202) or refused as the client's fault (400, 404, 413, 429) —
// never a 5xx, never a panic — and a 202 queues exactly as many stimuli as
// the body holds: one for an object, one per element for an array.
func FuzzStimuliBody(f *testing.F) {
	s, err := New(Options{Workloads: []Workload{gossip()}})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Add(Spec{ID: "demo", Workload: "gossip", Agents: 8, Shards: 2, Seed: 5}); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Add([]byte(`{"to":3,"name":"pressure","value":42.5,"source":"sensor-9"}`))
	f.Add([]byte(`[{"to":0,"name":"a","value":1},{"to":7,"name":"b","value":2,"scope":"private","time":3}]`))
	f.Add([]byte(`[]`))
	f.Add(append(append([]byte(`[{"to":0,"name":"`), bytes.Repeat([]byte("x"), maxStimuliBody)...), `"}]`...))
	f.Add([]byte("{\"to\":1,\"name\":\"\xff\xfe\",\"source\":\"\xc3\x28\"}"))
	f.Add([]byte(`{"to":8,"name":"pressure","value":1}`))
	f.Add([]byte(`{"to":-1,"name":"pressure","value":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		before, err := s.Status("demo")
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/populations/demo/stimuli", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var reply struct {
			Queued int `json:"queued"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("202 reply %q: %v", rec.Body, err)
		}
		parsed := 1
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); strings.HasPrefix(string(trimmed), "[") {
			var items []json.RawMessage
			if err := json.Unmarshal(body, &items); err != nil {
				t.Fatalf("202 for a batch that does not parse: %v", err)
			}
			parsed = len(items)
		}
		after, err := s.Status("demo")
		if err != nil {
			t.Fatal(err)
		}
		if reply.Queued != parsed || after.Ingested-before.Ingested != int64(parsed) {
			t.Fatalf("202 queued %d, ingested %d more, for a body of %d stimuli",
				reply.Queued, after.Ingested-before.Ingested, parsed)
		}
		if _, err := s.Advance("demo", 1); err != nil { // drain the mailboxes
			t.Fatal(err)
		}
	})
}
