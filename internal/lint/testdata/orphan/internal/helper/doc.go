// Package helper exists for tests alone and says so.
//
//sacslint:allow orphan test-only helper: its importers are test files
package helper
