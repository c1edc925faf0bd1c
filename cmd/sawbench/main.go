// Command sawbench runs the SACS experiment suite (E1–E10) and prints each
// experiment's table and figures: the evaluation a paper would report.
//
// All selected experiments are submitted to one shared internal/runner
// pool, and each experiment fans its systems × seeds simulation runs out
// as further jobs on that pool, so the whole suite scales with cores. The
// tables are bit-identical at any -parallel value; only the wall time
// changes.
//
// Usage:
//
//	sawbench                 # run everything at full scale
//	sawbench -exp E4,E6      # selected experiments
//	sawbench -scaling        # run the S-series scaling experiments (S1)
//	sawbench -seeds 5        # more seeds
//	sawbench -scale 0.2      # quick pass at reduced run lengths
//	sawbench -parallel 8     # cap concurrent simulation jobs (1 = serial)
//	sawbench -progress       # per-job progress and ETA on stderr
//	sawbench -metrics m.txt  # dump per-experiment job-latency histograms
//	sawbench -csv out/       # per-experiment CSVs + results.json in out/
//	sawbench -json res.json  # suite results as one JSON artifact
//	sawbench -list           # list experiments and claims (instant)
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sacs/internal/experiments"
	"sacs/internal/obs"
	"sacs/internal/runner"
)

func main() { os.Exit(run()) }

// suiteSystem marks the per-experiment jobs sawbench itself submits, so the
// cost accounting can tell them apart from the leaf simulation jobs the
// experiments fan out.
const suiteSystem = "suite"

func run() int {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		seeds    = flag.Int("seeds", 3, "seeds to average over")
		scale    = flag.Float64("scale", 1.0, "run-length scale factor (0..1]")
		list     = flag.Bool("list", false, "list experiments and exit")
		abl      = flag.Bool("ablations", false, "run the design ablations X1..X5 instead of E1..E10")
		scaling  = flag.Bool("scaling", false, "run the S-series population-scaling experiments instead of E1..E10")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSV files into")
		jsonPath = flag.String("json", "", "file to write suite results as JSON (default <csvdir>/results.json when -csv is set)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max simulation jobs in flight (1 = serial, <=0 = all cores)")
		progress = flag.Bool("progress", false, "report per-job progress and ETA on stderr")
		metrics  = flag.String("metrics", "", "file to write per-experiment job-latency histograms as Prometheus text exposition")
	)
	flag.Parse()

	reg := experiments.Registry()
	if *list {
		// Static metadata only: listing runs no simulations.
		for _, sp := range experiments.Specs() {
			fmt.Printf("%-4s %s\n", sp.ID, sp.Title)
		}
		return 0
	}

	ids := experiments.IDs()
	if *abl {
		ids = experiments.AblationIDs()
	}
	if *scaling {
		ids = experiments.ScalingIDs()
	}
	if *expFlag != "" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := reg[id]; !ok {
				fmt.Fprintf(os.Stderr, "sawbench: unknown experiment %q\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}

	pool := runner.New(*parallel)
	defer pool.Close()
	// Per-experiment cost accounting. An experiment's outer job is useless
	// for timing: while it blocks in Batch.Wait it helps run whatever is
	// ready on the shared pool — including other experiments' jobs — so its
	// elapsed time conflates everything in flight. Instead, sum the leaf
	// simulation jobs' own run times by experiment; outer suite jobs are
	// marked with suiteSystem and skipped.
	//
	// With -metrics, every job — suite and leaf alike — is also observed
	// into sacs_runner_job_seconds{series="runner/<experiment>"}, one
	// histogram series per experiment, registered on its first job.
	var (
		timeMu   sync.Mutex
		jobTime  = map[string]time.Duration{}
		jobCount = map[string]int{}
		jobHist  = map[string]*obs.Histogram{}
		metReg   *obs.Registry
	)
	if *metrics != "" {
		metReg = obs.NewRegistry()
	}
	var report func(runner.Progress)
	if *progress {
		report = runner.NewReporter(os.Stderr, 2*time.Second)
	}
	pool.OnProgress = func(pr runner.Progress) {
		timeMu.Lock()
		if pr.Key.System != suiteSystem {
			jobTime[pr.Key.Experiment] += pr.JobTime
			jobCount[pr.Key.Experiment]++
		}
		if metReg != nil {
			h := jobHist[pr.Key.Experiment]
			if h == nil {
				h = metReg.Histogram("sacs_runner_job_seconds", "per-job run time by experiment series",
					obs.Seconds, obs.DurationBounds(), obs.L("series", "runner/"+pr.Key.Experiment))
				jobHist[pr.Key.Experiment] = h
			}
			h.ObserveDuration(pr.JobTime)
		}
		timeMu.Unlock()
		if report != nil {
			report(pr)
		}
	}

	cfg := experiments.Config{Seeds: *seeds, Scale: *scale, Pool: pool}
	start := time.Now()

	// One job per selected experiment on the shared pool; each job fans its
	// own seeds × systems out as further jobs on the same pool (the pool's
	// helping Wait makes that nesting safe). Results print in submission
	// order, never completion order.
	batch := pool.NewBatch()
	for _, id := range ids {
		id := id
		batch.Add(runner.Key{Experiment: id, System: suiteSystem}, func() (any, error) {
			return reg[id].Run(cfg), nil
		})
	}
	results := batch.Wait()

	exit := 0
	arts := []artifact{}
	for _, jr := range results {
		if jr.Err != nil {
			// A failed experiment (a panic inside a simulation job) must not
			// take down the rest of the suite: report it, keep printing the
			// others, fail the exit code at the end.
			fmt.Fprintf(os.Stderr, "sawbench: %s failed: %v\n", jr.Key.Experiment, jr.Err)
			exit = 1
			continue
		}
		r := jr.Value.(*experiments.Result)
		fmt.Println(r)
		timeMu.Lock()
		simTime, simJobs := jobTime[r.ID], jobCount[r.ID]
		timeMu.Unlock()
		fmt.Printf("(%s completed in %v of simulation across %d jobs)\n\n",
			r.ID, simTime.Round(time.Millisecond), simJobs)
		arts = append(arts, toArtifact(r, simTime))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				// The results are already computed and printed; a bad CSV
				// target should not abandon the remaining experiments.
				fmt.Fprintf(os.Stderr, "sawbench: csv: %v\n", err)
				exit = 1
			}
		}
	}

	if path := *jsonPath; path != "" || *csvDir != "" {
		if path == "" {
			path = filepath.Join(*csvDir, "results.json")
		}
		if err := writeJSON(path, arts); err != nil {
			fmt.Fprintf(os.Stderr, "sawbench: json: %v\n", err)
			exit = 1
		}
	}

	if metReg != nil {
		if err := writeMetrics(*metrics, metReg); err != nil {
			fmt.Fprintf(os.Stderr, "sawbench: metrics: %v\n", err)
			exit = 1
		}
	}

	fmt.Printf("suite completed in %v\n", time.Since(start).Round(time.Millisecond))
	return exit
}

// writeMetrics writes reg's Prometheus text exposition to path.
func writeMetrics(path string, reg *obs.Registry) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteExposition(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// artifact is the JSON shape of one experiment's results: everything the
// printed table and figures carry, machine-readable.
type artifact struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Claim string `json:"claim"`
	// SimTimeMS sums the run times of the experiment's own simulation jobs —
	// actual compute, not wall time on the shared pool.
	SimTimeMS float64       `json:"sim_time_ms"`
	Table     artifactTable `json:"table"`
	Figures   []artifactFig `json:"figures,omitempty"`
}

type artifactTable struct {
	Title   string        `json:"title"`
	Columns []string      `json:"columns"`
	Rows    []artifactRow `json:"rows"`
	Notes   []string      `json:"notes,omitempty"`
}

type artifactRow struct {
	System string    `json:"system"`
	Cells  []float64 `json:"cells"`
}

type artifactFig struct {
	Title  string           `json:"title"`
	XLabel string           `json:"x_label"`
	YLabel string           `json:"y_label"`
	Series []artifactSeries `json:"series"`
}

type artifactSeries struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

func toArtifact(r *experiments.Result, simTime time.Duration) artifact {
	a := artifact{
		ID: r.ID, Title: r.Title, Claim: r.Claim,
		SimTimeMS: float64(simTime.Microseconds()) / 1000,
		Table: artifactTable{
			Title:   r.Table.Title,
			Columns: r.Table.Columns,
			Notes:   r.Table.Notes,
		},
	}
	for i := 0; i < r.Table.NumRows(); i++ {
		row := artifactRow{System: r.Table.RowLabel(i)}
		for j := range r.Table.Columns {
			row.Cells = append(row.Cells, r.Table.Cell(i, j))
		}
		a.Table.Rows = append(a.Table.Rows, row)
	}
	for _, f := range r.Figures {
		af := artifactFig{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel}
		for _, s := range f.Series {
			af.Series = append(af.Series, artifactSeries{Name: s.Name, X: s.X, Y: s.Y})
		}
		a.Figures = append(a.Figures, af)
	}
	return a
}

func writeJSON(path string, arts []artifact) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(arts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCSV dumps an experiment's table (one row per system) and every
// figure series into dir. The series file is long format (series,t,value),
// keyed "<figure>/<series>" and sorted by key; a key that occurs more than
// once keeps its points in figure order.
func writeCSV(dir string, r *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, r.ID+"_table.csv"))
	if err != nil {
		return err
	}
	defer tf.Close()
	w := csv.NewWriter(tf)
	header := append([]string{"system"}, r.Table.Columns...)
	if err := w.Write(header); err != nil {
		return err
	}
	for i := 0; i < r.Table.NumRows(); i++ {
		row := []string{r.Table.RowLabel(i)}
		for j := range r.Table.Columns {
			row = append(row, strconv.FormatFloat(r.Table.Cell(i, j), 'g', -1, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}

	if len(r.Figures) == 0 {
		return nil
	}
	rows := [][]string{{"series", "t", "value"}}
	for _, f := range r.Figures {
		for _, sr := range f.Series {
			for i := range sr.X {
				rows = append(rows, []string{f.Title + "/" + sr.Name,
					strconv.FormatFloat(sr.X[i], 'g', -1, 64), strconv.FormatFloat(sr.Y[i], 'g', -1, 64)})
			}
		}
	}
	data := rows[1:]
	sort.SliceStable(data, func(i, j int) bool { return data[i][0] < data[j][0] })
	ff, err := os.Create(filepath.Join(dir, r.ID+"_series.csv"))
	if err != nil {
		return err
	}
	defer ff.Close()
	return csv.NewWriter(ff).WriteAll(rows)
}
