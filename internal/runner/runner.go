package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Key identifies a job: which experiment, which system/variant row, and
// which RNG seed index it owns.
type Key struct {
	Experiment string
	System     string
	Seed       int
}

func (k Key) String() string {
	s := k.Experiment
	if s == "" {
		s = "?"
	}
	if k.System != "" {
		s += "/" + k.System
	}
	return fmt.Sprintf("%s#%d", s, k.Seed)
}

// Result is one completed job's outcome. Index is the job's position in its
// batch — the merge order — not the order it finished in.
type Result struct {
	Index   int
	Key     Key
	Value   any
	Err     error
	Elapsed time.Duration
}

// Progress is a snapshot delivered to Pool.OnProgress after each completion.
type Progress struct {
	Key     Key           // the job that just finished
	Done    int           // jobs completed so far, pool-wide
	Total   int           // jobs submitted so far, pool-wide
	Elapsed time.Duration // since the pool's first submission
	ETA     time.Duration // naive estimate of remaining wall time
	JobTime time.Duration // the finished job's own elapsed time
}

// Pool is a bounded-concurrency job dispatcher. Concurrency is bounded by
// the worker count passed to New: one slot belongs to whichever goroutine
// is waiting on a batch (Wait executes jobs itself), so New spawns
// workers-1 background goroutines.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ready   []*task
	closed  bool
	workers int
	wg      sync.WaitGroup

	started time.Time
	done    int
	total   int

	// OnProgress, when non-nil, is invoked after every job completes,
	// before the job is marked done — Batch.Wait returns only once the
	// callbacks for all its jobs have run. It is the pool's one per-job
	// timing hook: each call carries the job's Key and its own JobTime,
	// which is what progress reporting and per-experiment job-time
	// accounting (sawbench's -metrics histograms) are built on. It may be
	// called from several goroutines at once and must be safe for that
	// (NewReporter returns a suitable callback). It must not call back
	// into the pool. Set it before submitting work.
	OnProgress func(Progress)
}

type task struct {
	batch  *Batch
	index  int
	key    Key
	fn     func() (any, error)
	result Result
}

// New creates a pool that runs at most workers jobs at once; workers <= 0
// means runtime.GOMAXPROCS(0). Close releases the background goroutines
// when all batches have been waited on. New(1) is the serial mode: no
// goroutines are spawned and every job runs inline in Batch.Wait.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers-1; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers reports the pool's concurrency bound; a nil pool, which runs
// every job inline, has one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close drains the queue and stops the background workers. It is
// idempotent. Call it only after every batch has been waited on.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Batch is an ordered set of jobs submitted to one pool.
type Batch struct {
	pool    *Pool
	tasks   []*task
	pending int
}

// NewBatch starts an empty batch on the pool.
func (p *Pool) NewBatch() *Batch { return &Batch{pool: p} }

// Add appends a job; its index in the batch is the number of jobs added
// before it. The job may start running before Add returns.
func (b *Batch) Add(key Key, fn func() (any, error)) {
	p := b.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &task{batch: b, index: len(b.tasks), key: key, fn: fn}
	b.tasks = append(b.tasks, t)
	b.pending++
	p.total++
	if p.started.IsZero() {
		p.started = time.Now()
	}
	p.ready = append(p.ready, t)
	p.cond.Broadcast()
}

// Wait blocks until every job in the batch has finished and returns their
// results in index order. While blocked, the calling goroutine executes
// ready jobs itself (from this batch or any other on the pool), so nested
// fan-out — a job waiting on a sub-batch of the same pool — cannot
// deadlock.
func (b *Batch) Wait() []Result {
	p := b.pool
	p.mu.Lock()
	for b.pending > 0 {
		if t := p.popLocked(); t != nil {
			p.mu.Unlock()
			p.run(t)
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
	out := make([]Result, len(b.tasks))
	for i, t := range b.tasks {
		out[i] = t.result
	}
	p.mu.Unlock()
	return out
}

// Errors collects the failures in a result set into one error (nil when
// every job succeeded).
func Errors(rs []Result) error {
	var errs []error
	for _, r := range rs {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Key, r.Err))
		}
	}
	return errors.Join(errs...)
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		t := p.popLocked()
		if t == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		p.run(t)
		p.mu.Lock()
	}
}

func (p *Pool) popLocked() *task {
	if len(p.ready) == 0 {
		return nil
	}
	t := p.ready[0]
	p.ready = p.ready[1:]
	return t
}

// run executes one job with panic recovery, records its result and timing,
// reports progress, then marks the job done. OnProgress is delivered
// strictly before the job counts as complete, so when Batch.Wait returns every callback for the batch's jobs
// has already run — callers may read state the callbacks accumulate.
func (p *Pool) run(t *task) {
	start := time.Now()
	v, err := protect(t.key, t.fn)
	elapsed := time.Since(start)
	t.result = Result{Index: t.index, Key: t.key, Value: v, Err: err, Elapsed: elapsed}

	p.mu.Lock()
	p.done++
	done, total := p.done, p.total
	poolElapsed := time.Since(p.started)
	p.mu.Unlock()

	if f := p.OnProgress; f != nil {
		var eta time.Duration
		if done > 0 && done < total {
			eta = time.Duration(float64(poolElapsed) / float64(done) * float64(total-done))
		}
		f(Progress{Key: t.key, Done: done, Total: total, Elapsed: poolElapsed, ETA: eta, JobTime: elapsed})
	}

	p.mu.Lock()
	t.batch.pending--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// protect runs fn, converting a panic into an error that carries the job
// key and the stack, so one bad simulation run cannot take down the suite.
func protect(key Key, fn func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(key, r)
		}
	}()
	return fn()
}

// panicError is the error a job's recovered panic r becomes: the job key,
// the panic value and the stack. Call it from the deferred recover.
func panicError(key Key, r any) error {
	return fmt.Errorf("runner: job %s panicked: %v\n%s", key, r, debug.Stack())
}
