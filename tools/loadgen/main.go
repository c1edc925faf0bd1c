// Command loadgen is a wrk-style load driver for the sawd serving plane:
// it hammers one population with a mixed read/write workload (GET status,
// GET explain, POST stimuli) at fixed concurrency while an optional tick
// goroutine keeps Advance running, then reports per-op p50/p99 latency,
// throughput, the count of reads that completed while a tick was in flight
// (the lock-free read plane's proof of life) and the number of shed writes.
//
// Results are merged into a BENCH_*.json file through internal/benchjson:
// each run writes every entry's After side and keeps any Before side the
// file already carries, so a committed baseline (BENCH_PR9.json's locked
// read path) stays next to the fresh numbers:
//
//	sawd -dir '' &
//	loadgen -out BENCH_PR9.json -max-p99 50ms -min-reads-during-tick 1
//
// Exit status is non-zero when a gate fails: -max-p99 bounds the GET
// status p99, -min-reads-during-tick requires that many reads to have been
// served mid-tick.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacs/internal/benchjson"
)

type opKind int

const (
	opStatus opKind = iota
	opExplain
	opStimuli
	opKinds
)

var opName = [opKinds]string{"GET_status", "GET_explain", "POST_stimuli"}

// sample is one completed request: what it was, how long it took, how it
// ended.
type sample struct {
	op   opKind
	ns   int64
	code int
}

// worker state: each worker owns its RNG and its sample slice, so the hot
// loop shares nothing with its peers.
type worker struct {
	rng     *rand.Rand
	samples []sample
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8077", "sawd base URL")
		pop         = flag.String("pop", "demo", "population id to drive")
		duration    = flag.Duration("duration", 5*time.Second, "how long to drive load")
		concurrency = flag.Int("concurrency", 2*runtime.GOMAXPROCS(0), "concurrent client connections")
		explainPct  = flag.Float64("explain-ratio", 0.15, "fraction of requests that GET an agent explanation")
		writePct    = flag.Float64("write-ratio", 0.15, "fraction of requests that POST a stimulus batch")
		batch       = flag.Int("batch", 8, "stimuli per POST")
		tickEvery   = flag.Duration("tick-every", 50*time.Millisecond, "drive POST .../ticks at this cadence (0 = no ticking)")
		ticksPerReq = flag.Int("ticks-per-req", 1, "n per ticks POST")
		out         = flag.String("out", "", "BENCH_*.json file to merge results into (empty = report only)")
		note        = flag.String("note", "", "note recorded in the bench file (only when creating it)")
		maxP99      = flag.Duration("max-p99", 0, "gate: fail when GET status p99 exceeds this (0 = no gate)")
		minDuring   = flag.Int("min-reads-during-tick", 0, "gate: fail unless at least this many reads completed while a tick was in flight")
	)
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	base := strings.TrimRight(*addr, "/")

	agents, err := popAgents(client, base, *pop)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: cannot read population %q: %v\n", *pop, err)
		os.Exit(1)
	}
	duringBefore, shedBefore := counters(client, base, *pop)

	// The tick driver: sustained Advance is the whole point — read latency
	// against an idle engine would measure nothing.
	stopTicks := make(chan struct{})
	var tickWG sync.WaitGroup
	var ticks atomic.Int64
	if *tickEvery > 0 {
		tickWG.Add(1)
		go func() {
			defer tickWG.Done()
			t := time.NewTicker(*tickEvery)
			defer t.Stop()
			url := fmt.Sprintf("%s/populations/%s/ticks?n=%d", base, *pop, *ticksPerReq)
			for {
				select {
				case <-stopTicks:
					return
				case <-t.C:
					resp, err := client.Post(url, "application/json", nil)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							ticks.Add(int64(*ticksPerReq))
						}
					}
				}
			}
		}()
	}

	workers := make([]*worker, *concurrency)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{rng: rand.New(rand.NewSource(int64(i) + 1)), samples: make([]sample, 0, 4096)}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(client, base, *pop, agents, *batch, *explainPct, *writePct, deadline, w)
		}()
	}
	wg.Wait()
	close(stopTicks)
	tickWG.Wait()

	duringAfter, shedAfter := counters(client, base, *pop)
	readsDuring := int64(duringAfter - duringBefore)
	shed := int64(shedAfter - shedBefore)

	// Merge, summarise, report.
	byOp := make([][]int64, opKinds)
	codes := make(map[int]int64)
	for _, w := range workers {
		for _, s := range w.samples {
			byOp[s.op] = append(byOp[s.op], s.ns)
			codes[s.code]++
		}
	}
	fmt.Printf("loadgen: %s against %s (pop=%s agents=%d concurrency=%d, %d ticks driven)\n",
		duration.String(), base, *pop, agents, *concurrency, ticks.Load())
	results := make(map[string]benchjson.Result, opKinds)
	var statusP99 float64
	for op := opKind(0); op < opKinds; op++ {
		lat := byOp[op]
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
		rate := float64(len(lat)) / duration.Seconds()
		res := benchjson.Result{
			NsOp: mean(lat),
			Metrics: map[string]float64{
				"p50-ns":  p50,
				"p99-ns":  p99,
				"req/sec": rate,
			},
		}
		if op == opStatus {
			statusP99 = p99
			res.Metrics["reads-during-tick"] = float64(readsDuring)
		}
		if op == opStimuli {
			res.Metrics["shed"] = float64(shed)
		}
		results["ServePlane/"+opName[op]] = res
		fmt.Printf("  %-13s %8d reqs  %9.0f req/s  p50 %8s  p99 %8s\n",
			opName[op], len(lat), rate, time.Duration(int64(p50)), time.Duration(int64(p99)))
	}
	fmt.Printf("  reads during tick: %d   shed writes: %d   status codes: %v\n", readsDuring, shed, codes)

	if *out != "" {
		if err := merge(*out, *note, results); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", *out)
	}

	fail := false
	if *maxP99 > 0 && statusP99 > float64(*maxP99) {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: GET status p99 %s > max %s\n",
			time.Duration(int64(statusP99)), *maxP99)
		fail = true
	}
	if *minDuring > 0 && readsDuring < int64(*minDuring) {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: %d reads completed during ticks, need >= %d\n",
			readsDuring, *minDuring)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// drive is one worker's request loop until the deadline.
func drive(client *http.Client, base, pop string, agents, batch int, explainPct, writePct float64, deadline time.Time, w *worker) {
	statusURL := fmt.Sprintf("%s/populations/%s", base, pop)
	var body bytes.Buffer
	for time.Now().Before(deadline) {
		op := opStatus
		switch r := w.rng.Float64(); {
		case r < writePct:
			op = opStimuli
		case r < writePct+explainPct:
			op = opExplain
		}
		var (
			resp *http.Response
			err  error
		)
		start := time.Now()
		switch op {
		case opStatus:
			resp, err = client.Get(statusURL)
		case opExplain:
			resp, err = client.Get(fmt.Sprintf("%s/agents/%d/explain", statusURL, w.rng.Intn(agents)))
		case opStimuli:
			body.Reset()
			body.WriteByte('[')
			for i := 0; i < batch; i++ {
				if i > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"to":%d,"name":"load","value":%.3f,"source":"loadgen"}`,
					w.rng.Intn(agents), w.rng.Float64()*10)
			}
			body.WriteByte(']')
			resp, err = client.Post(statusURL+"/stimuli", "application/json", bytes.NewReader(body.Bytes()))
		}
		if err != nil {
			continue // connection-level failure: not a latency sample
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		w.samples = append(w.samples, sample{op: op, ns: time.Since(start).Nanoseconds(), code: resp.StatusCode})
	}
}

// popAgents reads the population's agent count from its status.
func popAgents(client *http.Client, base, pop string) (int, error) {
	resp, err := client.Get(fmt.Sprintf("%s/populations/%s", base, pop))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var st struct {
		Agents int `json:"agents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	if st.Agents <= 0 {
		return 0, fmt.Errorf("population reports %d agents", st.Agents)
	}
	return st.Agents, nil
}

// counters reads the reads-during-tick and shed totals for pop from
// /debug/vars (keys are `name{pop="..."}`).
func counters(client *http.Client, base, pop string) (during, shed float64) {
	resp, err := client.Get(base + "/debug/vars")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, 0
	}
	label := fmt.Sprintf(`{pop=%q}`, pop)
	if v, ok := vars["sacs_serve_view_reads_during_tick_total"+label].(float64); ok {
		during = v
	}
	if v, ok := vars["sacs_serve_shed_total"+label].(float64); ok {
		shed = v
	}
	return during, shed
}

// merge folds results into the bench file: it writes each entry's After
// side and keeps whatever Before side the entry already holds.
func merge(path, note string, results map[string]benchjson.Result) error {
	f, err := benchjson.Load(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		f = &benchjson.File{Note: note, Go: runtime.Version(), Benchmarks: map[string]benchjson.Entry{}}
	}
	if f.Benchmarks == nil {
		f.Benchmarks = map[string]benchjson.Entry{}
	}
	for name, res := range results {
		e := f.Benchmarks[name]
		e.After = res
		f.Benchmarks[name] = e
	}
	return f.Write(path)
}

func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i])
}

func mean(xs []int64) float64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
