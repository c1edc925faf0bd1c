package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current tree")

const goldenPath = "testdata/golden.txt"

// goldenCfg is the size the goldens pin: every experiment at it runs in well
// under a second.
var goldenCfg = Config{Seeds: 2, Scale: 0.05}

// resultHash hashes what a result reports — its table and every figure, as
// String renders them — and nothing else: the title and claim are static
// registry text. No experiment's table or figure holds a wall-clock value
// (S1 reports work proxies; its steps/sec lives in BenchmarkPopulationTick),
// so every column is hashed.
func resultHash(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", r.Table)
	for _, f := range r.Figures {
		fmt.Fprintf(h, "\x00%s\n", f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTables pins the paper's own result tables: every registered
// experiment at goldenCfg must print exactly the table and figures it
// printed when testdata/golden.txt was written. A change that should move
// no experiment number (a refactor, a layout or performance change) runs
// this unmodified; one that means to move them rewrites the file with
// `go test ./internal/experiments -run TestGoldenTables -update` and says
// why. The hashes are of floating-point output, so the file records the
// platform it was made on, and the test skips on any other.
func TestGoldenTables(t *testing.T) {
	platform := runtime.GOOS + "/" + runtime.GOARCH
	var got []string
	for _, sp := range Specs() {
		got = append(got, sp.ID+" "+resultHash(sp.Run(goldenCfg)))
	}
	if *update {
		body := fmt.Sprintf("# sha256 of each experiment's table and figures at Config{Seeds: %d, Scale: %g},\n"+
			"# made on the platform below; regenerate with: go test ./internal/experiments -run TestGoldenTables -update\n"+
			"platform %s\n%s\n", goldenCfg.Seeds, goldenCfg.Scale, platform, strings.Join(got, "\n"))
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "platform "):
			if p := strings.TrimPrefix(line, "platform "); p != platform {
				t.Skipf("goldens were made on %s, this is %s", p, platform)
			}
		default:
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, %d in %s", len(got), len(want), goldenPath)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("table or figures changed: got %q, want %q", got[i], want[i])
		}
	}
}
