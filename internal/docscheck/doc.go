// Package docscheck is the repository's documentation linter, run as
// ordinary Go tests so CI needs no external tools: it verifies that every
// relative link in the repo's Markdown files resolves to a real file, and
// that every exported identifier of the public selfaware facade carries a
// doc comment (the stdlib-flavoured equivalent of revive's "exported"
// rule). It ships no library code — the checks live in the test binary.
//
//sacslint:allow orphan the checks are its own tests; nothing is meant to import it
package docscheck
