// Package stray is imported by nothing but a test: an orphan.
package stray // want orphan "no non-test package of the module imports orphanfix/internal/stray"

// Help does nothing.
func Help() {}
