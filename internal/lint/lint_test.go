package lint_test

import (
	"testing"

	"sacs/internal/lint"
	"sacs/internal/lint/linttest"
)

// The fixture modules under testdata pin each pass's positive findings,
// its sanctioned negative shapes and its allow-annotation behaviour; see
// package linttest for the want-comment format.

func TestDetMap(t *testing.T)     { linttest.Run(t, "testdata/detmap", lint.DetMap) }
func TestDetSource(t *testing.T)  { linttest.Run(t, "testdata/detsource", lint.DetSource) }
func TestSnapState(t *testing.T)  { linttest.Run(t, "testdata/snapstate", lint.SnapState) }
func TestHotAlloc(t *testing.T)   { linttest.Run(t, "testdata/hotalloc", lint.HotAlloc) }
func TestLockAtomic(t *testing.T) { linttest.Run(t, "testdata/lockatomic", lint.LockAtomic) }
func TestOrphan(t *testing.T)     { linttest.Run(t, "testdata/orphan", lint.Orphan) }

// TestTreeClean is the golden test: the full suite over the real module
// must produce zero findings. Every deliberate exception in the tree is
// annotated, and stale-allow detection keeps those annotations honest, so
// any drift — new findings or dead allows — fails here before it fails CI.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	pkgs, err := lint.Load(".", "sacs/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Suite(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
