// Package linttest is the fixture runner for the sacslint analyzer suite —
// the stdlib-only equivalent of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a standalone module under internal/lint/testdata (its own
// go.mod keeps it invisible to the enclosing module and to `go build
// ./...`). Expectations live in the fixture source as comments:
//
//	keys = append(keys, k) // want detmap "append to keys"
//
//	x := time.Now() //sacslint:allow detsource
//	// want:up detsource "needs a justification"
//
// `// want <analyzer> "<substring>"` expects a diagnostic on its own line;
// `// want:up` expects one on the line directly above, which is how
// expectations attach to diagnostics that land on an annotation comment's
// line (a line cannot hold a second comment). One want comment may carry
// several analyzer/substring pairs.
//
// Run fails the test for every diagnostic without a matching expectation
// and every expectation without a matching diagnostic, so fixtures pin
// both the positive and the negative behaviour of a pass.
//
//sacslint:allow orphan test-only helper: the lint package's fixture tests import it
package linttest
