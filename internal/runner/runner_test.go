package runner

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowMix is a deterministic per-seed workload whose float accumulation
// would expose any merge-order dependence.
func slowMix(seed int) []float64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	a, b := 0.0, 0.0
	for i := 0; i < 5000; i++ {
		a += rng.Float64()
		b += rng.NormFloat64() * 1e-9
	}
	return []float64{a, b}
}

func TestRowsDeterministicAcrossWorkers(t *testing.T) {
	systems := []string{"sys-a", "sys-b", "sys-c", "sys-d"}
	fn := func(sys, seed int) []float64 { return slowMix(1000*sys + seed) }

	ref := Rows(nil, "det", systems, 5, fn)
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		got := Rows(p, "det", systems, 5, fn)
		p.Close()
		for si := range ref {
			for j := range ref[si] {
				if got[si][j] != ref[si][j] {
					t.Fatalf("workers=%d: row %d col %d = %v, want exactly %v",
						workers, si, j, got[si][j], ref[si][j])
				}
			}
		}
	}
}

func TestFanOutValuesByIndex(t *testing.T) {
	p := New(4)
	defer p.Close()
	out := FanOut(p, Key{Experiment: "fanout"}, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestFanOutInterfaceNilResults pins FanOut over an interface result type:
// a job returning a nil interface must yield the zero T, not a panic from
// the type assertion.
func TestFanOutInterfaceNilResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		out := FanOut(p, Key{Experiment: "fanout-err"}, 10, func(i int) error {
			if i%3 == 0 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		p.Close()
		for i, err := range out {
			if i%3 == 0 {
				if err == nil || err.Error() != fmt.Sprintf("job %d", i) {
					t.Fatalf("workers=%d: out[%d] = %v, want job %d", workers, i, err, i)
				}
			} else if err != nil {
				t.Fatalf("workers=%d: out[%d] = %v, want nil", workers, i, err)
			}
		}
	}
}

func TestSeedAvg(t *testing.T) {
	got := SeedAvg(nil, "avg", "only", 4, func(seed int) []float64 {
		return []float64{float64(seed), 10}
	})
	if got[0] != 1.5 || got[1] != 10 {
		t.Fatalf("SeedAvg = %v, want [1.5 10]", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	p := New(2)
	defer p.Close()
	b := p.NewBatch()
	b.Add(Key{Experiment: "ok", Seed: 0}, func() (any, error) { return 1, nil })
	b.Add(Key{Experiment: "boom", Seed: 1}, func() (any, error) { panic("kaboom") })
	b.Add(Key{Experiment: "ok", Seed: 2}, func() (any, error) { return 3, nil })
	rs := b.Wait()
	if rs[0].Err != nil || rs[0].Value.(int) != 1 {
		t.Fatalf("job 0: %+v", rs[0])
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "kaboom") {
		t.Fatalf("job 1 error = %v, want panic message", rs[1].Err)
	}
	if !strings.Contains(rs[1].Err.Error(), "boom#1") {
		t.Fatalf("panic error missing job key: %v", rs[1].Err)
	}
	if rs[2].Err != nil || rs[2].Value.(int) != 3 {
		t.Fatalf("job 2 should have survived its sibling's panic: %+v", rs[2])
	}
	if err := Errors(rs); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Errors = %v", err)
	}
}

func TestHelperRePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("FanOut swallowed a job panic")
		}
	}()
	FanOut(New(1), Key{Experiment: "boom"}, 3, func(i int) int {
		if i == 1 {
			panic("inner failure")
		}
		return i
	})
}

func TestEmptyBatch(t *testing.T) {
	p := New(2)
	defer p.Close()
	done := make(chan []Result, 1)
	go func() { done <- p.NewBatch().Wait() }()
	select {
	case rs := <-done:
		if len(rs) != 0 {
			t.Fatalf("empty batch returned %d results", len(rs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("empty batch Wait hung")
	}
	if out := FanOut[int](p, Key{}, 0, func(int) int { return 0 }); len(out) != 0 {
		t.Fatalf("empty FanOut returned %v", out)
	}
}

func TestSingleJob(t *testing.T) {
	out := FanOut(nil, Key{Experiment: "single"}, 1, func(int) string { return "v" })
	if len(out) != 1 || out[0] != "v" {
		t.Fatalf("single job = %v", out)
	}
}

func TestDependencyOnFinishedJob(t *testing.T) {
	// A job added after an earlier Wait returned must not wedge the batch.
	p := New(1)
	b := p.NewBatch()
	b.Add(Key{System: "first"}, func() (any, error) { return 1, nil })
	b.Wait() // job 0 is certainly done now
	b.Add(Key{System: "second"}, func() (any, error) { return 2, nil })
	rs := b.Wait()
	if len(rs) != 2 || rs[1].Value.(int) != 2 {
		t.Fatalf("results = %+v", rs)
	}
}

func TestNestedFanOutNoDeadlock(t *testing.T) {
	// Jobs that fan out sub-jobs on the same pool: the waiting job must
	// help drain the queue rather than deadlock, even at workers=1.
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		done := make(chan []float64, 1)
		go func() {
			done <- FanOut(p, Key{Experiment: "outer"}, 6, func(i int) float64 {
				inner := FanOut(p, Key{Experiment: "inner", System: "sub"}, 4,
					func(j int) float64 { return float64(10*i + j) })
				s := 0.0
				for _, v := range inner {
					s += v
				}
				return s
			})
		}()
		select {
		case out := <-done:
			for i, v := range out {
				want := float64(40*i + 6)
				if v != want {
					t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, v, want)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: nested fan-out deadlocked", workers)
		}
		p.Close()
	}
}

func TestProgressAndTrace(t *testing.T) {
	p := New(2)
	defer p.Close()
	var mu sync.Mutex
	var calls int
	var finalDone, finalTotal int
	p.OnProgress = func(pr Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		finalDone, finalTotal = pr.Done, pr.Total
		if pr.ETA < 0 || pr.JobTime < 0 {
			t.Errorf("negative timing in %+v", pr)
		}
	}
	FanOut(p, Key{Experiment: "prog"}, 9, func(i int) int { return i })
	mu.Lock()
	defer mu.Unlock()
	if calls != 9 {
		t.Fatalf("progress callbacks = %d, want 9", calls)
	}
	if finalDone != 9 || finalTotal != 9 {
		t.Fatalf("final progress %d/%d, want 9/9", finalDone, finalTotal)
	}
}

func TestProgressCompletesBeforeWaitReturns(t *testing.T) {
	// Accounting built on OnProgress (sawbench's per-experiment job times)
	// relies on every callback having run by the time Wait returns, even
	// when the callback is slow and the last job finishes on a background
	// worker.
	for _, workers := range []int{2, 8} {
		p := New(workers)
		var calls atomic.Int64
		p.OnProgress = func(Progress) {
			time.Sleep(time.Millisecond)
			calls.Add(1)
		}
		for round := 0; round < 5; round++ {
			calls.Store(0)
			FanOut(p, Key{Experiment: "acct"}, 16, func(i int) int { return i })
			if n := calls.Load(); n != 16 {
				t.Fatalf("workers=%d: Wait returned with %d/16 progress callbacks delivered", workers, n)
			}
		}
		p.Close()
	}
}

func TestReporterThrottles(t *testing.T) {
	var sb strings.Builder
	rep := NewReporter(&sb, time.Hour)
	for d := 1; d <= 5; d++ {
		rep(Progress{Key: Key{Experiment: "r"}, Done: d, Total: 5})
	}
	out := sb.String()
	if n := strings.Count(out, "\n"); n != 2 {
		// First completion prints (throttle window empty), then only the
		// final one may bypass the throttle.
		t.Fatalf("reporter wrote %d lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "5/5") {
		t.Fatalf("final completion not reported:\n%s", out)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(3)
	FanOut(p, Key{Experiment: "close"}, 4, func(i int) int { return i })
	p.Close()
	p.Close()
}

func TestKeyString(t *testing.T) {
	k := Key{Experiment: "E1", System: "self-aware", Seed: 2}
	if got := k.String(); got != "E1/self-aware#2" {
		t.Fatalf("Key.String() = %q", got)
	}
	if got := (Key{}).String(); got != "?#0" {
		t.Fatalf("zero Key.String() = %q", got)
	}
}

var fanOutSink []int

// TestFanOutNilPoolInline: on a nil pool FanOut runs the jobs in index
// order on the calling goroutine and allocates only its result slice — no
// pool, batch, task or closure per job.
func TestFanOutNilPoolInline(t *testing.T) {
	var order []int
	out := FanOut(nil, Key{Experiment: "inline"}, 5, func(i int) int {
		order = append(order, i)
		return 10 * i
	})
	for i := range out {
		if out[i] != 10*i || order[i] != i {
			t.Fatalf("job %d: value %d, ran %dth; want %d, in order", i, out[i], order[i], 10*i)
		}
	}
	square := func(i int) int { return i * i }
	if allocs := testing.AllocsPerRun(100, func() {
		fanOutSink = FanOut(nil, Key{Experiment: "inline"}, 8, square)
	}); allocs != 1 {
		t.Fatalf("FanOut on a nil pool: %v allocations, want 1 (the result slice)", allocs)
	}
}

// TestFanOutNilPoolPanicMatchesPool: a panicking job on a nil pool stops
// neither its siblings nor the fan-out's error from naming it: FanOut
// re-panics with what a one-worker pool reports, the job key, the panic
// value and the stack included.
func TestFanOutNilPoolPanicMatchesPool(t *testing.T) {
	catch := func(p *Pool) (ran []int, msg string) {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok {
				t.Fatalf("FanOut re-panicked with %v, want an error", r)
			}
			msg = err.Error()
		}()
		FanOut(p, Key{Experiment: "boom", System: "sys"}, 4, func(i int) int {
			ran = append(ran, i)
			if i == 1 || i == 2 {
				panic(fmt.Sprintf("failure %d", i))
			}
			return i
		})
		return ran, ""
	}
	p := New(1)
	defer p.Close()
	_, pooled := catch(p)
	ran, inline := catch(nil)
	if len(ran) != 4 {
		t.Fatalf("inline fan-out ran jobs %v, want all 4", ran)
	}
	for _, want := range []string{"boom/sys#1: runner: job boom/sys#1 panicked: failure 1", "boom/sys#2: runner: job boom/sys#2 panicked: failure 2", "goroutine "} {
		if !strings.Contains(inline, want) || !strings.Contains(pooled, want) {
			t.Fatalf("panic errors lack %q:\ninline: %s\npooled: %s", want, inline, pooled)
		}
	}
	if strings.Index(inline, "#1") > strings.Index(inline, "#2") {
		t.Fatalf("inline errors out of job order: %s", inline)
	}
}
