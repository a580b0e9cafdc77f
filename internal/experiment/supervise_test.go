package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clustersched/internal/checkpoint"
)

// superviseSpecs builds a small multi-cell spec grid over one policy pair.
func superviseSpecs(base BaseConfig) []RunSpec {
	var specs []RunSpec
	for _, pol := range []PolicyKind{EDF, LibraRisk} {
		for _, adf := range []float64{0.5, 0.7, 1.0} {
			specs = append(specs, RunSpec{
				Policy: pol, ArrivalDelayFactor: adf, InaccuracyPct: 100,
				Deadline: base.Deadline, Label: "supervise-test", Seed: base.Generator.Seed,
			})
		}
	}
	return specs
}

func TestSweepZeroSpecs(t *testing.T) {
	base := testBase()
	results := Sweep(base, nil, nil)
	if results == nil || len(results) != 0 {
		t.Fatalf("Sweep(0 specs) = %v, want empty non-nil slice", results)
	}
}

// TestPanicContainedToOneCell: a cell whose policy panics must surface as
// one RunError while every other cell of the sweep completes normally. On
// one worker the panic lands with the worker's scratch held, so every
// later cell must take the fresh-build path and still match the clean
// sweep.
func TestPanicContainedToOneCell(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 150
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	specs := superviseSpecs(base)
	clean := Sweep(base, jobs, specs)
	if err := FirstError(clean); err != nil {
		t.Fatal(err)
	}
	poison := specs[2]
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			b := base
			b.Workers = workers
			var mu sync.Mutex
			poisoned := false
			testFailHook = func(spec RunSpec, sc *runScratch) {
				mu.Lock()
				defer mu.Unlock()
				if spec == poison {
					if sc == nil {
						t.Error("poisoned cell ran without a scratch; the panic must land with one held")
					}
					poisoned = true
					panic("deliberately panicking policy")
				}
				if workers == 1 && poisoned && sc != nil {
					t.Errorf("cell %s reused the scratch a panic left dirty", spec.Ident())
				}
			}
			defer func() { testFailHook = nil }()

			results := Sweep(b, jobs, specs)
			for i, r := range results {
				if specs[i] == poison {
					var re *RunError
					if !errors.As(r.Err, &re) {
						t.Fatalf("poisoned cell err = %v, want *RunError", r.Err)
					}
					if len(re.Stack) == 0 {
						t.Fatal("panic RunError carries no stack trace")
					}
					if !strings.Contains(re.Error(), "supervise-test") || !strings.Contains(re.Error(), "panic") {
						t.Fatalf("error message not identifying: %q", re.Error())
					}
					continue
				}
				if r.Err != nil {
					t.Fatalf("healthy cell %d failed: %v", i, r.Err)
				}
				if r.Summary != clean[i].Summary {
					t.Fatalf("healthy cell %d drifted next to a panicking neighbour:\n%+v\n%+v",
						i, r.Summary, clean[i].Summary)
				}
			}
		})
	}
}

// TestCancellationFlushesJournal is ISSUE satellite (b): cancelling a
// sweep mid-flight leaves a valid journal containing the completed cells,
// marks the rest canceled, and a resumed sweep reuses the journaled cells
// to reproduce the uninterrupted results exactly.
func TestCancellationFlushesJournal(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 150
	base.Workers = 1 // serialize so "cancel after the first cell" is well defined
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	specs := superviseSpecs(base)
	clean := Sweep(base, jobs, specs)
	if err := FirstError(clean); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	journal, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := base
	interrupted.Journal = journal
	interrupted.Progress = func(ev ProgressEvent) {
		if ev.Done == 1 {
			cancel() // simulate SIGINT after the first completed cell
		}
	}
	results := SweepContext(ctx, interrupted, jobs, specs)
	cancel()

	var completed, canceled int
	for _, r := range results {
		if r.Err == nil {
			completed++
			continue
		}
		var re *RunError
		if !errors.As(r.Err, &re) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("interrupted cell err = %v, want canceled *RunError", r.Err)
		}
		canceled++
	}
	if completed == 0 || canceled == 0 {
		t.Fatalf("completed %d canceled %d, want both non-zero", completed, canceled)
	}

	// The journal on disk is valid JSONL holding exactly the completed cells.
	reloaded, err := checkpoint.Open(path)
	if err != nil {
		t.Fatalf("journal not valid after cancellation: %v", err)
	}
	if reloaded.Len() != completed {
		t.Fatalf("journal has %d records, want %d completed cells", reloaded.Len(), completed)
	}

	// Resume: same sweep against the reloaded journal completes and matches
	// the uninterrupted run cell for cell.
	resumed := base
	resumed.Journal = reloaded
	fromJournal := 0
	resumed.Progress = func(ev ProgressEvent) {
		if ev.FromJournal {
			fromJournal++
		}
	}
	final := SweepContext(context.Background(), resumed, jobs, specs)
	if err := FirstError(final); err != nil {
		t.Fatal(err)
	}
	if fromJournal != completed {
		t.Fatalf("resume reused %d journaled cells, want %d", fromJournal, completed)
	}
	for i := range final {
		if final[i].Summary != clean[i].Summary {
			t.Fatalf("cell %d differs after resume:\n%+v\n%+v", i, final[i].Summary, clean[i].Summary)
		}
	}
}

// TestResumeByteIdenticalFigure is ISSUE satellite (c) and the acceptance
// criterion: interrupt a figure sweep partway, resume it from the
// journal, and require the rendered figure to be byte-identical to an
// uninterrupted build.
func TestResumeByteIdenticalFigure(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 150
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure1FromContext(context.Background(), base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var clean bytes.Buffer
	if err := WriteFigure(&clean, fig); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	journal, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := base
	interrupted.Workers = 2
	interrupted.Journal = journal
	interrupted.Progress = func(ev ProgressEvent) {
		if ev.Done == 10 { // interrupt deep into the 60-cell grid
			cancel()
		}
	}
	if _, err := Figure1FromContext(ctx, interrupted, jobs); err == nil {
		t.Fatal("interrupted figure build reported success")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted build err = %v, want a canceled chain", err)
	}
	cancel()
	if journal.Len() == 0 {
		t.Fatal("no cells journaled before interruption")
	}

	reloaded, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Journal = reloaded
	refig, err := Figure1FromContext(context.Background(), resumed, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var resumedOut bytes.Buffer
	if err := WriteFigure(&resumedOut, refig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.Bytes(), resumedOut.Bytes()) {
		t.Fatal("resumed figure output is not byte-identical to the uninterrupted build")
	}
}

// TestChaosResumeFromJournalSkipsRuns: a fully journaled chaos sweep is
// satisfied without running a single simulation (the hook would panic on
// any attempt), and the mean σ aggregate survives the journal.
func TestChaosResumeFromJournalSkipsRuns(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 120
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	journal, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	withJournal := base
	withJournal.Journal = journal
	first := ChaosSweepContext(context.Background(), withJournal, jobs)
	for _, pt := range first {
		if pt.Err != nil {
			t.Fatalf("%v rate=%g: %v", pt.Policy, pt.FailuresPerDay, pt.Err)
		}
	}

	testFailHook = func(RunSpec, *runScratch) { panic("chaos cell re-ran despite full journal") }
	defer func() { testFailHook = nil }()
	reloaded, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	withJournal.Journal = reloaded
	second := ChaosSweepContext(context.Background(), withJournal, jobs)
	for i := range second {
		if second[i].Err != nil {
			t.Fatalf("journaled chaos cell %d failed: %v", i, second[i].Err)
		}
		if second[i].Summary != first[i].Summary || second[i].MeanSigma != first[i].MeanSigma {
			t.Fatalf("chaos cell %d drifted through the journal:\n%+v σ=%g\n%+v σ=%g",
				i, first[i].Summary, first[i].MeanSigma, second[i].Summary, second[i].MeanSigma)
		}
	}
}

// TestFirstErrorIdentifiesCell is ISSUE satellite: the one-line error of
// a failed cell names the figure label, seed, policy and parameters.
func TestFirstErrorIdentifiesCell(t *testing.T) {
	spec := RunSpec{
		Policy: LibraRisk, ArrivalDelayFactor: 0.3, InaccuracyPct: 100,
		Label: "figure4", Seed: 42,
	}
	re := &RunError{Spec: spec, Cause: errors.New("boom")}
	err := FirstError([]Result{{Spec: spec, Err: re}})
	for _, want := range []string{"figure4", "seed=42", "LibraRisk", "adf=0.3", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("FirstError = %q, missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "\n") {
		t.Fatalf("FirstError not one line: %q", err)
	}

	// Non-RunError failures still get the cell identity prefix.
	plain := FirstError([]Result{{Spec: spec, Err: errors.New("plain failure")}})
	for _, want := range []string{"figure4", "seed=42", "plain failure"} {
		if !strings.Contains(plain.Error(), want) {
			t.Fatalf("FirstError(plain) = %q, missing %q", plain, want)
		}
	}
}

// TestCanceledSweepNeverFabricatesResults: every cell of a pre-canceled
// sweep carries a canceled RunError, none a zero-value "success".
func TestCanceledSweepNeverFabricatesResults(t *testing.T) {
	base := testBase()
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := SweepContext(ctx, base, jobs, superviseSpecs(base))
	for i, r := range results {
		var re *RunError
		if !errors.As(r.Err, &re) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("cell %d of pre-canceled sweep: err = %v, want canceled *RunError", i, r.Err)
		}
	}
}
