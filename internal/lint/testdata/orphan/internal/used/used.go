// Package used is imported by a program: not an orphan.
package used

// Run does nothing.
func Run() {}
