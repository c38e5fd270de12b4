// Package runner is the parallel batch-execution engine behind
// hdpat.RunBatch and the experiments harness. Every simulation in this
// repository is single-threaded and deterministic, so a batch of N
// independent runs parallelises perfectly at the run level: a Pool fans
// tasks across GOMAXPROCS worker goroutines while keeping results in
// submission order, recovering per-task panics, and honouring context
// cancellation between (and, via the task's own context, inside) runs.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hdpat/internal/metrics"
	"hdpat/internal/wafer"
)

// Task is one unit of work: a prepared simulation closure. Tasks must be
// independent of each other; the pool may run them in any order and in any
// worker goroutine. The context is the batch context plus the batch's
// trace table — long tasks should pass it down (wafer.RunContext) so
// cancellation can interrupt a run mid-simulation, not just between runs,
// and so the run shares the batch's traces.
type Task func(ctx context.Context) (wafer.Result, error)

// Labeled returns task run under runtime/pprof.Do with the given label
// pairs (key, value, key, value, ...), so a CPU profile taken while the
// batch runs splits by run: go tool pprof -tagfocus scheme=hdpat. Every
// Pool caller labels its tasks with the run's scheme and benchmark, and
// hdpatd adds job_id and run_id. A label only tags profile samples; the
// run is unchanged.
func Labeled(task Task, kv ...string) Task {
	labels := pprof.Labels(kv...)
	return func(ctx context.Context) (res wafer.Result, err error) {
		pprof.Do(ctx, labels, func(ctx context.Context) { res, err = task(ctx) })
		return res, err
	}
}

// Outcome is one task's result plus its accounting.
type Outcome struct {
	// Index is the task's submission index; Pool.Run returns outcomes
	// ordered by it regardless of completion order.
	Index int
	// Result is the simulation result (zero when Err is non-nil).
	Result wafer.Result
	// Err is the task's error: the simulation error, the batch context's
	// error for tasks cancelled before or while running, or a *PanicError
	// when the task panicked.
	Err error
	// Wall is the task's wall-clock execution time (zero for tasks the
	// cancellation path skipped).
	Wall time.Duration
	// Start is the wall-clock instant the task began executing (zero for
	// tasks the cancellation path skipped) — with Wall it bounds the run's
	// real-time span for wall-clock timelines.
	Start time.Time
}

// PanicError wraps a panic recovered from a task, so one broken scheme run
// surfaces as a per-run error instead of crashing the whole sweep.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("runner: task panicked: %v", p.Value)
}

// Pool runs batches of tasks on a bounded set of worker goroutines.
// The zero value is ready to use.
type Pool struct {
	// Workers bounds concurrent tasks; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when set, is called after each task settles (completed,
	// failed, or skipped by cancellation) with the number settled so far and
	// the batch size. Calls are serialised; done is strictly increasing from
	// 1 to total.
	Progress func(done, total int, out Outcome)
	// Metrics, when set, receives batch throughput series, registered
	// zero-valued when Run starts and updated as tasks settle: runner.runs
	// and runner.errors counters, a runner.sim_cycles counter of simulated
	// cycles completed, and a runner.wall_ms histogram of per-run wall time.
	// Safe to scrape live (e.g. via metrics.ListenAndServe) while the batch
	// runs.
	Metrics *metrics.Registry

	// Task accounting behind Snapshot, cumulative across Run calls.
	total   atomic.Int64
	claimed atomic.Int64
	settled atomic.Int64
}

// Snapshot is a point-in-time view of a pool's task accounting: how many
// tasks are waiting for a worker, executing right now, and settled. Counts
// are cumulative across every Run call on the pool.
type Snapshot struct {
	// Queued tasks have been submitted but not yet claimed by a worker.
	Queued int `json:"queued"`
	// Inflight tasks are executing (or being drained by cancellation).
	Inflight int `json:"inflight"`
	// Done tasks have settled: completed, failed, or skipped by
	// cancellation.
	Done int `json:"done"`
	// Total tasks were ever submitted.
	Total int `json:"total"`
}

// Snapshot reports the pool's current task accounting. It is safe to call
// concurrently with Run — progress endpoints poll it while a batch is
// mid-flight. The counts are individually atomic, so a snapshot taken
// during a state transition may transiently disagree by one task between
// fields; Queued and Inflight are clamped at zero.
func (p *Pool) Snapshot() Snapshot {
	total := int(p.total.Load())
	claimed := int(p.claimed.Load())
	done := int(p.settled.Load())
	queued := total - claimed
	if queued < 0 {
		queued = 0
	}
	inflight := claimed - done
	if inflight < 0 {
		inflight = 0
	}
	return Snapshot{Queued: queued, Inflight: inflight, Done: done, Total: total}
}

// Run executes every task and returns their outcomes indexed by submission
// order. It always returns len(tasks) outcomes: when ctx is cancelled,
// unstarted tasks settle immediately with ctx's error while already-running
// tasks finish (or abort themselves via ctx) before Run returns.
//
// The tasks share one wafer.WithTraceTable context derived from ctx, so
// each benchmark's traces for a wafer, ops budget and seed are generated
// once per call, whatever the scheme. Every wafer.RunContext draws its own
// recycling store from the process-wide list, so a worker's runs reuse the
// GPM hierarchies of earlier runs, in this call or in an earlier one.
func (p *Pool) Run(ctx context.Context, tasks []Task) []Outcome {
	n := len(tasks)
	outs := make([]Outcome, n)
	if n == 0 {
		return outs
	}
	p.total.Add(int64(n))
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next int64 = -1 // claimed by atomic increment
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup

		runs, errs, cycles *metrics.Counter
		wallMS             *metrics.Histogram
	)
	if reg := p.Metrics; reg != nil {
		// Register every runner series, zero-valued, before any task runs:
		// a scrape before the first task settles sees the whole set, not
		// an empty registry.
		runs, errs, cycles = reg.Counter("runner.runs"), reg.Counter("runner.errors"), reg.Counter("runner.sim_cycles")
		wallMS = reg.Histogram("runner.wall_ms")
	}
	settle := func(out Outcome) {
		outs[out.Index] = out
		p.settled.Add(1)
		if runs != nil {
			runs.Inc()
			if out.Err != nil {
				errs.Inc()
			} else {
				cycles.Add(uint64(out.Result.Cycles))
			}
			wallMS.Observe(uint64(out.Wall.Milliseconds()))
		}
		if p.Progress == nil {
			return
		}
		mu.Lock()
		done++
		p.Progress(done, n, out)
		mu.Unlock()
	}

	bctx := wafer.WithTraceTable(ctx)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				p.claimed.Add(1)
				if err := ctx.Err(); err != nil {
					// Drain the remaining indices, marking each cancelled.
					settle(Outcome{Index: i, Err: err})
					continue
				}
				settle(execute(bctx, i, tasks[i]))
			}
		}()
	}
	wg.Wait()
	return outs
}

// execute runs one task with wall-time accounting and panic recovery.
func execute(ctx context.Context, i int, task Task) (out Outcome) {
	out.Index = i
	start := time.Now()
	out.Start = start
	defer func() {
		out.Wall = time.Since(start)
		if v := recover(); v != nil {
			out.Result = wafer.Result{}
			out.Err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	out.Result, out.Err = task(ctx)
	return out
}
