// Command perfbench is the repository benchmark: it runs one workload
// against an in-process sawd stack (serve.Server hosting the gossip
// population that experiments.S2Config builds), checks the program's
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// measures the workload twice, untraced and traced, and reports the
// per-layer breakdown, both sets of end-to-end values and the tracing
// overhead. See README.md for the workloads and what each metric means.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sacs/internal/experiments"
	"sacs/internal/serve"
)

// The hosted population, identical in every workload.
const (
	popID     = "bench"
	agents    = 1024
	shards    = 16
	warmTicks = 64  // past S2's goal switch at tick 60, so the window sees steady state
	setups    = 201 // set-ups per run; setup_s is the fastest
)

var gossip = []serve.Workload{{Name: "gossip", Build: experiments.S2Config}}

func spec(seed int64) serve.Spec {
	return serve.Spec{ID: popID, Workload: "gossip", Agents: agents, Shards: shards, Seed: seed}
}

// quiet discards the program's informational logging.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// leg is one measured pass of a workload: set up, warm up, measure for
// window, check.
type leg struct {
	seed    int64
	window  time.Duration
	tr      *tracer // nil: untraced
	scratch string  // directory inside the checkout for files the leg writes
}

// legResult is what a leg measured. e2e holds the end-to-end metrics, both
// the gated set and the per-workload ones; layer the per-layer breakdown
// (traced legs only).
type legResult struct {
	problems          []string
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	lateness          []float64 // generator lateness samples, ms
	notes             []string  // human-readable lines
}

func newLegResult() *legResult {
	return &legResult{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *legResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// putTail stores the q-tail of xs under name when enough samples lie beyond
// it, and notes the refusal otherwise.
func (r *legResult) putTail(m map[string]float64, name string, xs []float64, q float64) {
	if v, ok := tail(xs, q); ok {
		m[name] = v
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("%s not reported: %d samples leave fewer than %d beyond it", name, len(xs), minBeyond))
}

func putMedian(m map[string]float64, name string, xs []float64) {
	if v, ok := median(xs); ok {
		m[name] = v
	}
}

// timeSetups builds the workload's rig setups times, keeping the last one,
// and returns the fastest build time in seconds. The heap is collected
// before each build so one build's garbage is not charged to the next.
//
// The fastest build, not the median: on the machine the benchmark was
// defined on, build times are bimodal (about 1.7 ms and 3.4 ms for the
// same build in the same process, in phases that last hundreds of builds,
// with no GC cycle or page faults to tell them apart), so a run's median
// lands on either mode and its spread over seeds reached 0.46; the fastest
// build's stayed near 0.1. Work moved into set-up slows every build, the
// fastest too.
func timeSetups[R any](build func() (R, error), teardown func(R)) (R, float64, error) {
	var rig R
	best := math.Inf(1)
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		r, err := build()
		if err != nil {
			return rig, 0, err
		}
		best = min(best, time.Since(start).Seconds())
		if i < setups-1 {
			teardown(r)
		} else {
			rig = r
		}
	}
	return rig, best, nil
}

type metricDef struct {
	name, unit   string
	higherBetter bool
}

// e2eMetrics is the end-to-end set every workload reports (BENCHMARK.json
// end_to_end). Their per-workload meaning is in README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s", false},
	{"steps_per_s", "1/s", true},
	{"tick_p50_ms", "ms", false},
	{"op_p50_ms", "ms", false},
	{"peak_rss_mb", "MB", false},
}

// workloadMetrics are the end-to-end metrics a workload has under its own
// name; each workload reports the ones that apply. They are not gated
// (README.md says why).
var workloadMetrics = []metricDef{
	{"tick_p99_ms", "ms", false},
	{"advance_p99_ms", "ms", false},
	{"status_p50_ms", "ms", false},
	{"status_p99_ms", "ms", false},
	{"explain_p50_ms", "ms", false},
	{"explain_p99_ms", "ms", false},
	{"ingest_p50_ms", "ms", false},
	{"ingest_p99_ms", "ms", false},
	{"checkpoint_p50_ms", "ms", false},
	{"resume_p50_ms", "ms", false},
	{"failed_ratio", "ratio", false},
}

// layerMetrics is the per-layer breakdown of a traced leg (BENCHMARK.json
// per_layer, before the untraced/traced/overhead and gen families). A layer
// a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"core.step_ns_per_agent", "ns", false},
	{"population.step_wall_ms", "ms", false},
	{"population.busy_ms", "ms", false},
	{"population.parallel_eff", "ratio", true},
	{"population.route_ms", "ms", false},
	{"population.steals_per_tick", "count", false},
	{"population.msgs_per_tick", "count", false},
	{"population.delivered_per_tick", "count", false},
	{"population.export_ms", "ms", false},
	{"population.construct_ms", "ms", false},
	{"population.install_ms", "ms", false},
	{"checkpoint.write_ms", "ms", false},
	{"checkpoint.read_decode_ms", "ms", false},
	{"checkpoint.encode_ms", "ms", false},
	{"checkpoint.decode_ms", "ms", false},
	{"checkpoint.file_mb", "MB", false},
	{"checkpoint.alloc_amplification", "ratio", false},
	{"cluster.rpc_tick_p50_ms", "ms", false},
	{"cluster.rpc_tick_p99_ms", "ms", false},
	{"cluster.coord_self_ms", "ms", false},
	{"cluster.wire_ms", "ms", false},
	{"cluster.bytes_per_tick", "count", false},
	{"serve.handler_ms.status.p50", "ms", false},
	{"serve.handler_ms.status.p99", "ms", false},
	{"serve.handler_ms.explain.p50", "ms", false},
	{"serve.handler_ms.explain.p99", "ms", false},
	{"serve.handler_ms.ingest.p50", "ms", false},
	{"serve.handler_ms.ingest.p99", "ms", false},
	{"serve.http_overhead_ms", "ms", false},
	{"serve.advance_overhead_ms", "ms", false},
	{"serve.lock_overlap_ratio", "ratio", false},
	{"serve.explain_hit_ratio", "ratio", true},
	{"serve.reads_during_tick", "count", true},
	{"serve.shed_ratio", "ratio", false},
	{"check.tick_decomp_max_err_ms", "ms", false},
	{"check.ckpt_decomp_max_err_ms", "ms", false},
	{"process.cpu_busy_ratio", "ratio", false},
	{"trace.spans", "count", false},
}

var workloads = map[string]func(*leg) (*legResult, error){
	"serve-mixed":       runServeMixed,
	"cluster-ingest":    runClusterIngest,
	"checkpoint-resume": runCheckpointResume,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "serve-mixed | cluster-ingest | checkpoint-resume")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: also a traced run, per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and checkpoint files")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (serve-mixed|cluster-ingest|checkpoint-resume), -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	runLeg := func(tr *tracer, tag string) (*legResult, error) {
		scratch, err := os.MkdirTemp(*out, fmt.Sprintf("%s-%s-", *name, tag))
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
		return wl(&leg{seed: *seed, window: window, tr: tr, scratch: scratch})
	}

	plain, err := runLeg(nil, "untraced")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	legs := []*legResult{plain}
	report(os.Stdout, *name, "untraced", plain)

	metrics := map[string]metricValue{}
	if *trace == 0 {
		for _, m := range e2eMetrics {
			metrics[m.name] = metricValue{plain.e2e[m.name], m.unit}
		}
	} else {
		tr := newTracer()
		traced, err := runLeg(tr, "traced")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		legs = append(legs, traced)
		traced.layer["trace.spans"] = float64(len(tr.snapshot()))
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := tr.write(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		report(os.Stdout, *name, "traced", traced)
		fmt.Printf("spans written to %s\n", spans)
		for _, m := range layerMetrics {
			metrics[m.name] = metricValue{traced.layer[m.name], m.unit}
		}
		// Every end-to-end metric twice, and what tracing cost. A metric
		// the workload does not have (or a tail one leg refused) reads 0.
		for _, m := range append(append([]metricDef(nil), e2eMetrics...), workloadMetrics...) {
			u, uok := plain.e2e[m.name]
			t, tok := traced.e2e[m.name]
			over := 0.0
			if uok && tok {
				over = overheadPct(u, t, m.higherBetter)
			}
			metrics["untraced."+m.name] = metricValue{u, m.unit}
			metrics["traced."+m.name] = metricValue{t, m.unit}
			metrics["overhead."+m.name] = metricValue{over, "%"}
		}
		// The generator's own lateness in the untraced leg, whose timings
		// are the end-to-end ones.
		lp, _ := tail(plain.lateness, 0.99)
		metrics["gen.lateness_p99_ms"] = metricValue{lp, "ms"}
		metrics["gen.lateness_max_ms"] = metricValue{maxOf(plain.lateness), "ms"}
	}

	res := result{Correct: true, Metrics: metrics}
	for _, l := range legs {
		res.Attempted += l.attempted
		res.Failed += l.failed
		for _, p := range l.problems {
			res.Correct = false
			fmt.Printf("CHECK FAILED: %s\n", p)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints a leg's metrics by name with their units.
func report(w io.Writer, workload, tag string, r *legResult) {
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d\n", workload, tag, r.attempted, r.failed)
	show := func(defs []metricDef, m map[string]float64) {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	show(e2eMetrics, r.e2e)
	show(workloadMetrics, r.e2e)
	if len(r.layer) > 0 {
		fmt.Fprintf(w, "  per-layer:\n")
		show(layerMetrics, r.layer)
	}
	lp, ok := tail(r.lateness, 0.99)
	if !ok {
		lp = maxOf(r.lateness)
	}
	fmt.Fprintf(w, "  generator lateness: p99 %.4f ms, max %.4f ms (%d samples)\n", lp, maxOf(r.lateness), len(r.lateness))
	notes := append([]string(nil), r.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
