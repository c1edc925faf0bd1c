package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"sacs/internal/experiments"
	"sacs/internal/stats"
)

// TestWriteCSVSeriesBytes pins the exact <ID>_series.csv layout: one
// long-format row per point, series keyed "<figure>/<series>", keys
// sorted by name, and points of a key that occurs in both figures merged
// in insertion order (first figure's points, then the second's).
func TestWriteCSVSeriesBytes(t *testing.T) {
	tab := stats.NewTable("fixture", "a", "b")
	tab.AddRow("sa", 1, 0.5)
	r := &experiments.Result{
		ID:    "T1",
		Title: "fixture",
		Table: tab,
		Figures: []*stats.Figure{
			{Title: "util", Series: []*stats.Series{
				{Name: "sa", X: []float64{0, 1}, Y: []float64{0.1, 1e-07}},
				{Name: "base", X: []float64{2}, Y: []float64{3}},
			}},
			{Title: "util", Series: []*stats.Series{
				{Name: "sa", X: []float64{5}, Y: []float64{-2.5}},
				{Name: "aaa", X: []float64{9}, Y: []float64{1e21}},
			}},
		},
	}
	dir := t.TempDir()
	if err := writeCSV(dir, r); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "T1_series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "series,t,value\n" +
		"util/aaa,9,1e+21\n" +
		"util/base,2,3\n" +
		"util/sa,0,0.1\n" +
		"util/sa,1,1e-07\n" +
		"util/sa,5,-2.5\n"
	if string(got) != want {
		t.Fatalf("series csv:\n%s\nwant:\n%s", got, want)
	}
	tbl, err := os.ReadFile(filepath.Join(dir, "T1_table.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "system,a,b\nsa,1,0.5\n"; string(tbl) != want {
		t.Fatalf("table csv:\n%s\nwant:\n%s", tbl, want)
	}
}

// TestMetricsJobCounts runs a two-experiment suite end to end and checks
// the -metrics exposition: exactly one sacs_runner_job_seconds series per
// experiment, whose _count is every job the experiment ran — its leaf
// simulation jobs (the count sawbench prints) plus its own suite job.
func TestMetricsJobCounts(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "m.txt")
	stdoutPath := filepath.Join(dir, "stdout.txt")
	out, err := os.Create(stdoutPath)
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldStdout := os.Args, os.Stdout
	os.Args = []string{"sawbench", "-exp", "E1,E3", "-scale", "0.05", "-seeds", "2",
		"-parallel", "2", "-metrics", metricsPath}
	os.Stdout = out
	code := run()
	os.Args, os.Stdout = oldArgs, oldStdout
	out.Close()
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}

	printed, err := os.ReadFile(stdoutPath)
	if err != nil {
		t.Fatal(err)
	}
	leaf := map[string]int{}
	for _, m := range regexp.MustCompile(`\((\w+) completed in \S+ of simulation across (\d+) jobs\)`).FindAllStringSubmatch(string(printed), -1) {
		n, _ := strconv.Atoi(m[2])
		leaf[m[1]] = n
	}
	if len(leaf) != 2 || leaf["E1"] == 0 || leaf["E3"] == 0 {
		t.Fatalf("leaf job counts = %v, want E1 and E3", leaf)
	}

	expo, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var series []string
	for _, m := range regexp.MustCompile(`(?m)^sacs_runner_job_seconds_count\{series="runner/(\w+)"\} (\d+)$`).FindAllStringSubmatch(string(expo), -1) {
		n, _ := strconv.Atoi(m[2])
		counts[m[1]] = n
		series = append(series, m[1])
	}
	sort.Strings(series)
	if len(series) != 2 || series[0] != "E1" || series[1] != "E3" {
		t.Fatalf("job-time series = %v, want exactly [E1 E3]\n%s", series, expo)
	}
	for id, n := range leaf {
		if counts[id] != n+1 {
			t.Errorf("%s: _count = %d, want %d leaf jobs + 1 suite job", id, counts[id], n)
		}
	}
}
