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
	// MeanSigma is the run's time-averaged cluster risk σ over its
	// monitor samples: 0 unless the spec sets MonitorInterval and the
	// policy runs on the time-shared cluster.
	MeanSigma float64
	Err       error
	// FromJournal marks a cell satisfied from the checkpoint journal
	// instead of being run.
	FromJournal bool
}

// RunError is the failure of one sweep cell, naming the cell. A
// cancelled sweep's cells carry the context's error as their Cause, so
// errors.Is(err, context.Canceled) detects them.
type RunError struct {
	Spec  RunSpec
	Stack []byte // the panic's stack trace; nil unless the run panicked
	Cause error
}

func (e *RunError) Error() string { return fmt.Sprintf("%s: %v", e.Spec.Ident(), e.Cause) }

func (e *RunError) Unwrap() error { return e.Cause }

// testFailHook, when non-nil, runs inside every cell's panic guard after
// the worker's scratch is acquired (sc is nil on the fresh-build path);
// tests use it to stand in for a panicking policy.
var testFailHook func(spec RunSpec, sc *runScratch)

// runCell runs one sweep cell with its panic contained, reusing the
// worker's scratch when one is provided and clean. A simulation is a
// pure function of its inputs, so a failed cell is not retried. A
// panicking run never reaches release, so every later cell on the
// worker runs on the fresh-build path instead of a half-mutated scratch.
func runCell(ctx context.Context, base BaseConfig, baseJobs []workload.Job, spec RunSpec, sc *runScratch, cell int) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Spec: spec, Err: &RunError{Spec: spec, Stack: debug.Stack(), Cause: fmt.Errorf("panic: %v", r)}}
		}
	}()
	use := sc.acquire()
	if hook := testFailHook; hook != nil {
		hook(spec, use)
	}
	sum, sigma, err := runInstrumented(ctx, base, baseJobs, spec, use, cell)
	use.release()
	if err != nil {
		return Result{Spec: spec, Err: &RunError{Spec: spec, Cause: err}}
	}
	return Result{Spec: spec, Summary: sum, MeanSigma: sigma}
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

// SweepContext is Sweep under supervision, and the one loop every figure's
// cells run through: each cell runs with its panic contained (see
// runCell); completed cells are checkpointed to BaseConfig.Journal (and
// journaled cells are reused instead of re-run); BaseConfig.Progress is
// told about every finished cell; and cancelling ctx stops admission of
// new cells, aborts in-flight runs at event-loop granularity, and gives
// every unfinished cell a *RunError wrapping the context's error. The
// journal is consistent on disk after every append, so there is nothing
// further to flush on cancellation.
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
		// Serialized, so Done counts deliveries in order.
		var mu sync.Mutex
		done := 0
		report = func(i int) {
			mu.Lock()
			defer mu.Unlock()
			done++
			base.Progress(ProgressEvent{
				Done: done, Total: len(specs),
				Spec: specs[i], FromJournal: results[i].FromJournal, Err: results[i].Err,
			})
		}
	}
	workers := base.workerCount(len(specs))
	scratches := newScratchPool(base, workers)
	RunPool(ctx, len(specs), workers, func(w, i int) {
		results[i] = journaledCell(base, specs[i], digest, func() Result {
			return runCell(ctx, base, baseJobs, specs[i], scratchFor(scratches, w), i)
		})
		finished[i] = true
		report(i)
	})
	// Cells never admitted (cancellation stopped the pool) must not look
	// like successful empty runs.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !finished[i] {
				results[i] = Result{Spec: specs[i], Err: &RunError{Spec: specs[i], Cause: err}}
			}
		}
	}
	return results
}

// journaledCell satisfies one cell from BaseConfig.Journal when its key is
// there, and otherwise runs it and journals the result. run is called only
// on a miss, so a worker that only hits the journal builds no scratch.
func journaledCell(base BaseConfig, spec RunSpec, digest string, run func() Result) Result {
	if base.Journal == nil {
		return run()
	}
	key, err := CellKey(base, spec, digest)
	if err != nil {
		return Result{Spec: spec, Err: &RunError{Spec: spec, Cause: err}}
	}
	if rec, ok := base.Journal.Lookup(key); ok {
		return Result{Spec: spec, Summary: rec.Summary, MeanSigma: rec.MeanSigma, FromJournal: true}
	}
	res := run()
	if res.Err == nil {
		rec := checkpoint.Record{Key: key, Label: spec.Label, Summary: res.Summary, MeanSigma: res.MeanSigma}
		if err := base.Journal.Append(rec); err != nil {
			res.Err = &RunError{Spec: spec, Cause: err}
		}
	}
	return res
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
