// Package runner is the experiment dispatcher: a deterministic job queue
// executed by a bounded worker pool.
//
// The experiments layer submits every individual simulation run — one
// (experiment, system/variant, seed) triple — as a job; the pool runs as
// many of them concurrently as its worker bound allows, and results are
// merged back in job-index order, never completion order. Because each job
// owns its own RNG seed and the merge order is fixed, aggregate tables are
// bit-identical regardless of the worker count: `New(1)` and `New(32)`
// produce the same bytes, only at different speeds.
//
// Waiting helps: Batch.Wait executes queued jobs on the waiting goroutine
// instead of idling. This is what makes nested fan-out safe — an experiment
// job that blocks on its own seed batch drains that batch (or any other
// ready work) itself, so a pool can never deadlock on jobs that submit
// jobs. It also means New(1) spawns no goroutines at all: every job runs
// inline in Wait, which is the serial reference mode.
package runner
