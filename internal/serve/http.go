package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sacs/internal/core"
	"sacs/internal/knowledge"
	"sacs/internal/obs"
)

// The HTTP surface of a Server. Errors are returned as JSON
// {"error": "..."} with 400 for caller mistakes (unknown population,
// out-of-range agent, malformed body) and 500 for host-side failures
// (checkpoint I/O). All handlers are safe for concurrent use: they go
// through the Server methods, which serialise per population.

// StimulusRequest is the POST /populations/{id}/stimuli body: one external
// observation to deliver to agent To at the next tick. Scope is "public"
// (default) or "private"; Time defaults to the population's current tick.
// The endpoint also accepts a JSON array of these, enqueued in order as
// one atomic batch.
type StimulusRequest struct {
	To     int      `json:"to"`
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Source string   `json:"source,omitempty"`
	Scope  string   `json:"scope,omitempty"`
	Time   *float64 `json:"time,omitempty"`
}

// maxStimuliBody bounds one ingest request's body (1 MiB ≈ tens of
// thousands of stimuli): a first backpressure line so a hot client cannot
// buffer unbounded JSON into the daemon.
const maxStimuliBody = 1 << 20

// item converts the wire form to the Server's ingest form, validating the
// fields that the wire format cannot express as types.
func (r *StimulusRequest) item() (IngestItem, error) {
	if r.Name == "" {
		return IngestItem{}, errors.New("stimulus needs a name")
	}
	scope := knowledge.Public
	switch r.Scope {
	case "", "public":
	case "private":
		scope = knowledge.Private
	default:
		return IngestItem{}, fmt.Errorf("bad scope %q (public|private)", r.Scope)
	}
	stim := core.Stimulus{Name: r.Name, Source: r.Source, Scope: scope, Value: r.Value}
	if r.Time != nil {
		stim.Time = *r.Time
	}
	return IngestItem{To: r.To, Stim: stim, HasTime: r.Time != nil}, nil
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// routeMetrics is one route pattern's instrument set, registered when the
// Handler is built; the per-request path is two atomic updates.
type routeMetrics struct {
	byClass [6]*obs.Counter // index status/100 (2xx..5xx populated)
	latency *obs.Histogram
}

// handle registers pattern on mux with request counting (by status class)
// and latency instrumentation around h.
func (s *Server) handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	route := obs.L("route", pattern)
	rm := &routeMetrics{
		latency: s.reg.Histogram("sacs_http_request_seconds",
			"request handling latency", obs.Seconds, obs.DurationBounds(), route),
	}
	for _, class := range []int{2, 3, 4, 5} {
		rm.byClass[class] = s.reg.Counter("sacs_http_requests_total",
			"requests by route and status class", route,
			obs.L("class", fmt.Sprintf("%dxx", class)))
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		rm.latency.ObserveDuration(time.Since(start))
		if c := sw.code / 100; c >= 2 && c <= 5 {
			rm.byClass[c].Inc()
		}
	})
}

// Handler returns the Server's HTTP API:
//
//	GET  /healthz                              liveness + uptime + population count
//	GET  /metrics                              Prometheus text exposition
//	GET  /debug/vars                           the same metrics as one JSON object
//	GET  /populations                          all populations' status
//	GET  /populations/{id}                     one population's status
//	POST /populations/{id}/ticks?n=K           advance K ticks (default 1)
//	POST /populations/{id}/stimuli             ingest one StimulusRequest, or a
//	                                           JSON array of them (atomic batch,
//	                                           enqueued in order, one lock pass)
//	GET  /populations/{id}/agents/{n}/explain  per-agent self-explanation (text)
//	POST /populations/{id}/checkpoint          snapshot to disk now
//	GET  /cluster                              worker list + per-population placements
//	POST /cluster/workers                      admit a worker: {"addr":"host:port"}
//	                                           (new addresses join the list; a known
//	                                           address is re-dialled into its slot)
//	POST /cluster/rebalance                    migrate shards live via the default
//	                                           cost policy; returns the moves
//
// The /cluster routes exist only when the server hosts populations on a
// cluster (Options.UseCluster); in-process servers answer 400. Every route
// is instrumented (request count by status class, latency); the exposition
// and JSON snapshot render the server's whole registry — engine, cluster
// and serve planes alike.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	s.handle(mux, "GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WriteExposition(w)
	})

	s.handle(mux, "GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	})

	// The liveness probe reads only atomics (nPops mirrors the population
	// map): it must answer even while s.mu is write-held building an
	// engine over a slow cluster, or while every population is mid-tick.
	s.handle(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":          true,
			"uptime_sec":  time.Since(s.started).Seconds(),
			"populations": s.nPops.Load(),
		})
	})

	s.handle(mux, "GET /populations", func(w http.ResponseWriter, r *http.Request) {
		out := make([]Status, 0)
		for _, id := range s.IDs() {
			st, err := s.Status(id)
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			out = append(out, st)
		}
		writeJSON(w, http.StatusOK, out)
	})

	s.handle(mux, "GET /populations/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	s.handle(mux, "POST /populations/{id}/ticks", func(w http.ResponseWriter, r *http.Request) {
		n := 1
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q: %w", q, err))
				return
			}
			n = v
		}
		const maxTicksPerRequest = 100000 // backpressure: bound one request's work
		if n < 1 || n > maxTicksPerRequest {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("n must be in [1, %d], got %d", maxTicksPerRequest, n))
			return
		}
		last, err := s.Advance(r.PathValue("id"), n)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrHost) {
				code = http.StatusInternalServerError
			}
			writeErr(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ticked":    n,
			"tick":      last.Tick + 1, // ticks completed after this request
			"steps":     last.Steps,
			"messages":  last.Messages,
			"delivered": last.Delivered,
			"actions":   last.Actions,
		})
	})

	s.handle(mux, "POST /populations/{id}/stimuli", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxStimuliBody+1))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("reading stimulus body: %w", err))
			return
		}
		if len(body) > maxStimuliBody {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("stimulus body exceeds %d bytes; split the batch", maxStimuliBody))
			return
		}
		var reqs []StimulusRequest
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
			if err := json.Unmarshal(body, &reqs); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad stimulus batch: %w", err))
				return
			}
			if len(reqs) == 0 {
				writeErr(w, http.StatusBadRequest, errors.New("empty stimulus batch"))
				return
			}
		} else {
			var one StimulusRequest
			if err := json.Unmarshal(body, &one); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad stimulus body: %w", err))
				return
			}
			reqs = append(reqs, one)
		}
		items := make([]IngestItem, len(reqs))
		for i := range reqs {
			it, err := reqs[i].item()
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("stimulus %d: %w", i, err))
				return
			}
			items[i] = it
		}
		deliverAt, err := s.IngestBatch(r.PathValue("id"), items)
		if err != nil {
			// Budget shedding is its own contract: 429 with a Retry-After
			// of about one tick interval, after which the barrier will
			// have drained the mailboxes.
			if errors.Is(err, ErrOverloaded) {
				w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter(r.PathValue("id"))))
				writeErr(w, http.StatusTooManyRequests, err)
				return
			}
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"queued": len(items), "deliver_at_tick": deliverAt})
	})

	s.handle(mux, "GET /populations/{id}/agents/{n}/explain", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.PathValue("n"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad agent index %q", r.PathValue("n")))
			return
		}
		text, tick, err := s.ExplainAt(r.PathValue("id"), n)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrHost):
				code = http.StatusInternalServerError
			case errors.Is(err, ErrNotFound):
				// Decided against the published view — for cluster-hosted
				// populations, no worker round-trip.
				code = http.StatusNotFound
			}
			writeErr(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Sacs-View-Tick", strconv.Itoa(tick))
		fmt.Fprint(w, text)
	})

	s.handle(mux, "GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.ClusterStatus()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	s.handle(mux, "POST /cluster/workers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Addr   string `json:"addr"`
			WaitMS int    `json:"wait_ms"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad admit body: %w", err))
			return
		}
		wi, err := s.ClusterAdmit(req.Addr, time.Duration(req.WaitMS)*time.Millisecond)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"worker": wi, "addr": req.Addr})
	})

	s.handle(mux, "POST /cluster/rebalance", func(w http.ResponseWriter, r *http.Request) {
		moves, err := s.ClusterRebalance()
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrHost) {
				code = http.StatusInternalServerError
			}
			writeErr(w, code, err)
			return
		}
		total := 0
		for _, m := range moves {
			total += len(m)
		}
		writeJSON(w, http.StatusOK, map[string]any{"moves": moves, "total": total})
	})

	// Catch-all: requests matching no route still flow through handle()'s
	// accounting, so the middleware is the single point where every
	// response — 2xx, shed 429s, oversized 413s, unknown-path 404s — is
	// counted into sacs_http_requests_total on both metrics planes.
	s.handle(mux, "/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no route for %s %s", r.Method, r.URL.Path))
	})

	s.handle(mux, "POST /populations/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		path, err := s.Checkpoint(r.PathValue("id"))
		if err != nil {
			// The documented contract: ErrHost marks the service's own
			// failures (snapshot export, encoding, checkpoint I/O) → 500;
			// everything else — unknown population, no checkpoint
			// directory configured — is the caller's mistake → 400.
			code := http.StatusBadRequest
			if errors.Is(err, ErrHost) {
				code = http.StatusInternalServerError
			}
			writeErr(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"path": path})
	})

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
