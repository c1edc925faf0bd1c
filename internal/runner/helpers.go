package runner

import (
	"errors"
	"fmt"
)

// The helpers in this file capture the fan-out shape every experiment
// shares — "loop systems × seeds, sum, divide" — as pool jobs. Summation
// always runs in ascending job-index order after all jobs finish, so the
// returned aggregates are bit-identical for any worker count. A nil pool is
// accepted everywhere and means "run inline on the calling goroutine"
// (FanOut runs the jobs in a plain loop; Rows uses a one-shot
// single-worker pool, which spawns no goroutines), so library code and
// tests need no pool plumbing to call an experiment serially.

// FanOut dispatches n independent jobs — fn(0) … fn(n-1), each owning seed
// index i — and returns their values in index order. If any job fails or
// panics, FanOut re-panics with the collected error, mirroring what the
// panic would have done in a serial loop. On a nil pool the jobs run in
// index order on the calling goroutine, with no batch, task or closure
// per job: the engine's per-tick fan-out costs only its result slice.
func FanOut[T any](p *Pool, key Key, n int, fn func(i int) T) []T {
	if p == nil {
		return fanOutInline(key, n, fn)
	}
	b := p.NewBatch()
	for i := 0; i < n; i++ {
		i := i
		k := key
		k.Seed = i
		b.Add(k, func() (any, error) { return fn(i), nil })
	}
	rs := b.Wait()
	if err := Errors(rs); err != nil {
		panic(err)
	}
	out := make([]T, n)
	for i, r := range rs {
		// Comma-ok: a nil interface result (FanOut[error] with a job that
		// succeeded) boxes to a nil any, which a plain assertion rejects.
		out[i], _ = r.Value.(T)
	}
	return out
}

// fanOutInline is FanOut on a nil pool: every job runs, a panic is
// recovered into the error a pool's job would report, and the errors are
// joined in index order as Errors joins a batch's.
func fanOutInline[T any](key Key, n int, fn func(i int) T) []T {
	out := make([]T, n)
	var errs []error
	for i := range out {
		k := key
		k.Seed = i
		if err := protectInline(k, fn, i, &out[i]); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", k, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		panic(err)
	}
	return out
}

// protectInline stores fn(i) in *dst, converting a panic into protect's
// error.
func protectInline[T any](key Key, fn func(i int) T, i int, dst *T) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(key, r)
		}
	}()
	*dst = fn(i)
	return nil
}

// Rows fans out len(systems) × seeds jobs: fn(sys, seed) returns one metric
// vector for that system under that seed. Rows returns, per system, the
// element-wise mean across seeds — the row of an experiment table. All
// vectors returned by fn for one system must have the same length.
func Rows(p *Pool, experiment string, systems []string, seeds int, fn func(sys, seed int) []float64) [][]float64 {
	if p == nil {
		p = New(1)
	}
	b := p.NewBatch()
	for si, name := range systems {
		for s := 0; s < seeds; s++ {
			si, s := si, s
			b.Add(Key{Experiment: experiment, System: name, Seed: s},
				func() (any, error) { return fn(si, s), nil })
		}
	}
	rs := b.Wait()
	if err := Errors(rs); err != nil {
		panic(err)
	}
	out := make([][]float64, len(systems))
	for si := range systems {
		var sum []float64
		for s := 0; s < seeds; s++ {
			v := rs[si*seeds+s].Value.([]float64)
			if sum == nil {
				sum = make([]float64, len(v))
			}
			for j := range v {
				sum[j] += v[j]
			}
		}
		for j := range sum {
			sum[j] /= float64(seeds)
		}
		out[si] = sum
	}
	return out
}

// SeedAvg is Rows for a single system: the element-wise mean across seeds
// of the metric vector fn returns.
func SeedAvg(p *Pool, experiment, system string, seeds int, fn func(seed int) []float64) []float64 {
	return Rows(p, experiment, []string{system}, seeds,
		func(_, s int) []float64 { return fn(s) })[0]
}
