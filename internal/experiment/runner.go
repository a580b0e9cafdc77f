package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"clustersched/internal/checkpoint"
	"clustersched/internal/metrics"
	"clustersched/internal/workload"
)

// Result pairs a spec with its summary.
type Result struct {
	Spec    RunSpec
	Summary metrics.Summary
	Err     error
	// FromJournal marks a cell satisfied from the checkpoint journal
	// instead of being run.
	FromJournal bool
}

// FailureKind classifies why a supervised run failed.
type FailureKind string

// The failure taxonomy. Panics and watchdog timeouts are treated as
// potentially transient and retried once with the same seed (the
// simulation is a pure function of its inputs, so a retry that succeeds
// is the correct result); cancellation and engine errors are not.
const (
	// FailPanic: the run panicked and was contained by the worker.
	FailPanic FailureKind = "panic"
	// FailTimeout: the run exceeded BaseConfig.RunTimeout.
	FailTimeout FailureKind = "timeout"
	// FailCanceled: the sweep's context was canceled (e.g. SIGINT).
	FailCanceled FailureKind = "canceled"
	// FailEngine: the simulation itself reported an error.
	FailEngine FailureKind = "engine"
)

// RunError is the structured failure of one supervised sweep cell.
type RunError struct {
	Spec     RunSpec
	Stage    string // "admission" | "simulate" | "journal"
	Kind     FailureKind
	Attempts int    // attempts made, including the failed one (0 = never started)
	Stack    []byte // panic stack trace, FailPanic only
	Cause    error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("%s: %s at stage %s (attempt %d): %v",
		e.Spec.Ident(), e.Kind, e.Stage, e.Attempts, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }

// maxAttempts bounds the supervised retry: the first attempt plus one
// same-seed retry for transient failures.
const maxAttempts = 2

// classify maps an attempt error onto the failure taxonomy.
func classify(err error) FailureKind {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.Is(err, context.Canceled):
		return FailCanceled
	default:
		return FailEngine
	}
}

// testFailHook, when non-nil, runs at the top of every supervised attempt
// (after the panic guard is armed); tests use it to stand in for a
// panicking or transiently failing policy.
var testFailHook func(spec RunSpec, attempt int)

// cellFunc executes one simulation attempt; the float64 is an optional
// sweep-specific aggregate (the chaos sweep's mean σ, 0 elsewhere).
type cellFunc func(ctx context.Context) (metrics.Summary, float64, error)

// runAttempt executes one attempt of one cell with the panic guard armed
// and the per-run watchdog applied.
func runAttempt(ctx context.Context, base BaseConfig, spec RunSpec, attempt int, fn cellFunc) (sum metrics.Summary, extra float64, err error) {
	runCtx := ctx
	if base.RunTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, base.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Spec: spec, Stage: "simulate", Kind: FailPanic, Attempts: attempt,
				Stack: debug.Stack(), Cause: fmt.Errorf("panic: %v", r),
			}
		}
	}()
	if hook := testFailHook; hook != nil {
		hook(spec, attempt)
	}
	return fn(runCtx)
}

// superviseCell is the supervision contract for one cell: attempt the
// run, contain panics, classify failures, and retry transient ones
// (panic, watchdog timeout) exactly once with the same seed so
// determinism is preserved. The returned error, if any, is always a
// *RunError.
func superviseCell(ctx context.Context, base BaseConfig, spec RunSpec, fn cellFunc) (metrics.Summary, float64, error) {
	var last *RunError
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return metrics.Summary{}, 0, &RunError{
				Spec: spec, Stage: "admission", Kind: FailCanceled,
				Attempts: attempt - 1, Cause: err,
			}
		}
		sum, extra, err := runAttempt(ctx, base, spec, attempt, fn)
		if err == nil {
			return sum, extra, nil
		}
		if !errors.As(err, &last) {
			last = &RunError{
				Spec: spec, Stage: "simulate", Kind: classify(err),
				Attempts: attempt, Cause: err,
			}
		}
		if last.Kind != FailPanic && last.Kind != FailTimeout {
			break // deterministic or canceled: a retry cannot help
		}
	}
	return metrics.Summary{}, 0, last
}

// runCell supervises one plain (monitor-less) sweep cell, reusing the
// worker's scratch when one is provided and clean. The acquire/release
// pair is what keeps the supervised retry safe: a panicking attempt never
// reaches release, so the retry (and every later cell on the worker) runs
// on the fresh-build path instead of a half-mutated scratch.
func runCell(ctx context.Context, base BaseConfig, baseJobs []workload.Job, spec RunSpec, sc *runScratch, cell int) (metrics.Summary, error) {
	sum, _, err := superviseCell(ctx, base, spec, func(runCtx context.Context) (metrics.Summary, float64, error) {
		use := sc.acquire()
		s, _, err := runInstrumented(runCtx, base, baseJobs, spec, 0, use, cell)
		use.release()
		return s, 0, err
	})
	return sum, err
}

// workerCount clamps the configured sweep parallelism to the work at hand.
func (b BaseConfig) workerCount(n int) int {
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// newProgressCounter wraps a Progress callback so deliveries are
// serialized and stamped with the sweep-level Done/Total counters.
func newProgressCounter(fn func(ProgressEvent), total int) func(ProgressEvent) {
	var mu sync.Mutex
	done := 0
	return func(ev ProgressEvent) {
		mu.Lock()
		done++
		ev.Done, ev.Total = done, total
		fn(ev)
		mu.Unlock()
	}
}

// RunPool dispatches indices [0, n) to a bounded worker pool, stops
// admitting new indices once ctx is done, and drains in-flight work
// before returning. fn receives the worker index w alongside the work
// index i so callers can attach per-worker state (the reuse scratches);
// each w is owned by exactly one goroutine.
func RunPool(ctx context.Context, n, workers int, fn func(w, i int)) {
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				fn(w, i)
			}
		}(w)
	}
admit:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			break admit
		case work <- i:
		}
	}
	close(work)
	wg.Wait()
}

// Sweep runs every spec against the shared base workload, fanning out over
// a bounded worker pool. Results are returned in spec order regardless of
// completion order; individual failures are captured per result rather
// than aborting the sweep.
func Sweep(base BaseConfig, baseJobs []workload.Job, specs []RunSpec) []Result {
	return SweepContext(context.Background(), base, baseJobs, specs)
}

// SweepContext is Sweep under supervision: each cell runs with a panic
// guard, the per-run watchdog, and a single same-seed retry for transient
// failures; completed cells are checkpointed to BaseConfig.Journal (and
// journaled cells are reused instead of re-run); BaseConfig.Progress is
// told about every finished cell; and cancelling ctx stops admission of
// new cells, aborts in-flight runs at event-loop granularity, and marks
// every unfinished cell with a FailCanceled *RunError. The journal is
// consistent on disk after every append, so there is nothing further to
// flush on cancellation.
func SweepContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job, specs []RunSpec) []Result {
	if len(specs) == 0 {
		// Nothing to do: skip the pool machinery entirely.
		return []Result{}
	}
	results := make([]Result, len(specs))
	finished := make([]bool, len(specs))
	var digest string
	if base.Journal != nil {
		digest = WorkloadDigest(baseJobs)
	}
	report := func(int) {}
	if base.Progress != nil {
		prog := newProgressCounter(base.Progress, len(specs))
		report = func(i int) {
			prog(ProgressEvent{
				Spec: specs[i], FromJournal: results[i].FromJournal, Err: results[i].Err,
			})
		}
	}
	workers := base.workerCount(len(specs))
	scratches := newScratchPool(base, workers)
	RunPool(ctx, len(specs), workers, func(w, i int) {
		spec := specs[i]
		var key string
		if base.Journal != nil {
			k, err := CellKey(base, spec, digest)
			if err != nil {
				results[i] = Result{Spec: spec, Err: &RunError{
					Spec: spec, Stage: "journal", Kind: FailEngine, Attempts: 0, Cause: err,
				}}
				finished[i] = true
				report(i)
				return
			}
			key = k
			if rec, ok := base.Journal.Lookup(key); ok {
				results[i] = Result{Spec: spec, Summary: rec.Summary, FromJournal: true}
				finished[i] = true
				report(i)
				return
			}
		}
		sum, err := runCell(ctx, base, baseJobs, spec, scratchFor(scratches, w), i)
		results[i] = Result{Spec: spec, Summary: sum, Err: err}
		if err == nil && base.Journal != nil {
			if jerr := base.Journal.Append(checkpoint.Record{Key: key, Label: spec.Label, Summary: sum}); jerr != nil {
				results[i].Err = &RunError{
					Spec: spec, Stage: "journal", Kind: FailEngine, Attempts: 1, Cause: jerr,
				}
			}
		}
		finished[i] = true
		report(i)
	})
	// Cells never admitted (cancellation stopped the pool) must not look
	// like successful empty runs.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !finished[i] {
				results[i] = Result{Spec: specs[i], Err: &RunError{
					Spec: specs[i], Stage: "admission", Kind: FailCanceled,
					Attempts: 0, Cause: err,
				}}
			}
		}
	}
	return results
}

// FirstError returns the first failure in a sweep, if any, identified by
// the cell's label, policy, swept parameters and seed.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			var re *RunError
			if errors.As(r.Err, &re) {
				// RunError already carries the full cell identity.
				return fmt.Errorf("experiment: %w", re)
			}
			return fmt.Errorf("experiment: %s: %w", r.Spec.Ident(), r.Err)
		}
	}
	return nil
}
