package linttest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sacs/internal/lint"
)

// want is one expectation: a diagnostic from analyzer whose message
// contains substr, at file:line.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRE = regexp.MustCompile(`^want(:up)?\s+(.*)$`)
var pairRE = regexp.MustCompile(`([A-Za-z0-9_-]+)\s+"([^"]*)"`)

// Run loads the fixture module rooted at dir, runs analyzers over every
// package in it and compares the surviving diagnostics against the
// fixture's want comments.
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(abs, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.Suite(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running suite on %s: %v", dir, err)
	}
	wants := collectWants(t, pkgs)

	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: missing diagnostic: want %s %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
}

// matchWant finds the first unmatched expectation covering d.
func matchWant(wants []*want, d lint.Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
			w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
			return w
		}
	}
	return nil
}

// collectWants parses every want comment in the loaded fixture packages.
func collectWants(t *testing.T, pkgs []*lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					m := wantRE.FindStringSubmatch(text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					line := pos.Line
					if m[1] == ":up" {
						line--
					}
					pairs := pairRE.FindAllStringSubmatch(m[2], -1)
					if len(pairs) == 0 {
						t.Fatalf("%s: malformed want comment: %s", pos, c.Text)
					}
					for _, p := range pairs {
						wants = append(wants, &want{
							file:     pos.Filename,
							line:     line,
							analyzer: p[1],
							substr:   p[2],
						})
					}
				}
			}
		}
	}
	return wants
}
