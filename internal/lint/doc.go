// Package lint is sacslint: a static-analysis pass suite that moves this
// repository's load-bearing dynamic contracts to compile time.
//
// The engine's guarantees — byte-identical ticks at any worker count,
// restore(snapshot(T)) continuing bit-for-bit, zero-allocation hot paths —
// were previously enforced only by tests that had to happen to exercise
// the offending path. The suite encodes each contract as a checker over
// the type-checked AST:
//
//   - detmap: map iteration whose order can leak into encoded, compared
//     or float-accumulated results (the PR 3 MeanForecastError bug class);
//   - detsource: wall clocks, global math/rand state and select statements
//     inside the deterministic engine packages;
//   - snapstate: every field a state writer encodes must be restored by a
//     state reader, and every field a reader restores must be encoded;
//   - hotalloc: allocation-prone constructs inside //sacs:hotpath
//     functions;
//   - lockatomic: mixed atomic/plain field access, and Transport calls or
//     channel operations inside mutex critical sections;
//   - orphan: internal packages that no non-test package of the module
//     imports.
//
// Deliberate exceptions are annotated in the source and verified by the
// suite itself: `//sacslint:allow <analyzer> <reason>` suppresses exactly
// one line's findings for one analyzer and must carry a justification; an
// allow that suppresses nothing is reported as stale, so the allowlist
// stays load-bearing.
//
// The suite mirrors the golang.org/x/tools/go/analysis architecture
// (Analyzer, Pass, Reportf, an analysistest-style fixture runner in
// linttest) but is built on the standard library alone: packages are
// enumerated by `go list -export -json -deps` and dependencies are
// imported from the toolchain's export data, so the module keeps its
// empty dependency graph.
//
// Run it as `go run ./cmd/sacslint ./...`; CI runs it over every PR and
// fails on any finding.
package lint
