package experiment

import (
	"context"
	"reflect"
	"testing"

	"clustersched/internal/workload"
)

// reuseSpecs builds a sweep that makes the per-worker scratches work hard:
// every resettable policy is visited several times (so the cached policy
// contexts carry real cross-cell state), plus non-resettable extension
// policies (rebuilt fresh each run) and a faulted cell interleaved so a
// scratch must recover from fault-injected runs too.
func reuseSpecs(base BaseConfig) []RunSpec {
	var specs []RunSpec
	for _, adf := range []float64{1, 0.7, 0.5} {
		for _, pol := range AllPolicies {
			specs = append(specs, RunSpec{
				Policy: pol, ArrivalDelayFactor: adf, InaccuracyPct: 100, Deadline: base.Deadline,
			})
		}
	}
	specs = append(specs,
		RunSpec{Policy: FCFS, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline},
		RunSpec{Policy: QoPS, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline},
		RunSpec{Policy: LibraRisk, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline,
			Faults: ChaosFaultConfig(1, 42)},
		RunSpec{Policy: Libra, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline},
	)
	return specs
}

// TestSweepReuseMatchesDisableReuse is the reuse layer's differential
// acceptance test: the same sweep with reused per-worker run contexts and
// with disableReuse (every cell built from scratch) must produce
// byte-identical summaries. Workers > 1 so, under -race, it also proves
// the scratches are properly confined to their worker goroutines.
func TestSweepReuseMatchesDisableReuse(t *testing.T) {
	base := testBase()
	base.Workers = 3
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	specs := reuseSpecs(base)
	reused := Sweep(base, jobs, specs)
	if err := FirstError(reused); err != nil {
		t.Fatal(err)
	}
	fresh := base
	fresh.disableReuse = true
	baseline := Sweep(fresh, jobs, specs)
	if err := FirstError(baseline); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if reused[i].Summary != baseline[i].Summary {
			t.Errorf("spec %d (%s): reused %+v != fresh %+v",
				i, specs[i].Ident(), reused[i].Summary, baseline[i].Summary)
		}
	}
}

// TestChaosSweepReuseMatchesDisableReuse extends the differential to the
// instrumented path: monitors, fault injection and the mean-σ aggregate
// must be untouched by context reuse.
func TestChaosSweepReuseMatchesDisableReuse(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 200
	base.Workers = 2
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	reused := ChaosSweepContext(context.Background(), base, jobs)
	fresh := base
	fresh.disableReuse = true
	baseline := ChaosSweepContext(context.Background(), fresh, jobs)
	for i := range reused {
		if reused[i].Err != nil {
			t.Fatalf("point %d (%v rate=%g): %v", i, reused[i].Policy, reused[i].FailuresPerDay, reused[i].Err)
		}
		if !reflect.DeepEqual(reused[i], baseline[i]) {
			t.Errorf("point %d diverges:\nreused %+v\nfresh  %+v", i, reused[i], baseline[i])
		}
	}
}

// TestAllFiguresIdenticalWithReuseDisabled replays the full figure set
// (reduced scale) both ways: reuse must be invisible in every panel of
// every figure.
func TestAllFiguresIdenticalWithReuseDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid in -short mode")
	}
	base := testBase()
	base.Generator.Jobs = 150
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := allFiguresFrom(base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := base
	fresh.disableReuse = true
	baseline, err := allFiguresFrom(fresh, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, baseline) {
		t.Fatal("figures diverge between reused and fresh run contexts")
	}
}

// allAdmittedJobs builds a workload no policy can reject: singleton jobs
// arriving after the previous one has certainly finished, so every
// admission test sees an (almost) empty cluster. Rejections are the one
// event that allocates on the run path (the reason string), so the
// zero-allocation test needs a workload with none.
func allAdmittedJobs(n int) []workload.Job {
	jobs := make([]workload.Job, n)
	for i := range jobs {
		jobs[i] = workload.Job{
			ID:            i + 1,
			Submit:        float64(i) * 200,
			Runtime:       50,
			TraceEstimate: 60,
			NumProc:       1,
		}
	}
	return jobs
}

// BenchmarkReusedSweepCell measures one warm sweep cell through a reused
// scratch — the steady-state unit of every sweep. Run with -benchmem; the
// allocs/op column must stay at 0 (the alloc test below enforces it).
func BenchmarkReusedSweepCell(b *testing.B) {
	base := DefaultBase()
	base.Nodes = 4
	jobs := allAdmittedJobs(64)
	sc := newRunScratch()
	ctx := context.Background()
	spec := RunSpec{Policy: LibraRisk, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline}
	if res := runCell(ctx, base, jobs, spec, sc, -1); res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := runCell(ctx, base, jobs, spec, sc, -1); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// TestRunScratchSteadyStateAllocationFree is the tentpole's acceptance
// test: once a worker's scratch is warm, running another sweep cell
// through it must perform zero heap allocations — the engine recycles
// events through its freelist, the recorder and clusters re-fill retained
// storage, and the job slice is transformed in place.
func TestRunScratchSteadyStateAllocationFree(t *testing.T) {
	base := DefaultBase()
	base.Nodes = 4
	jobs := allAdmittedJobs(64)
	sc := newRunScratch()
	ctx := context.Background()
	for _, pol := range AllPolicies {
		spec := RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline}
		run := func() {
			res := runCell(ctx, base, jobs, spec, sc, -1)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if sum := res.Summary; sum.Submitted != len(jobs) || sum.Rejected != 0 || sum.Unfinished != 0 {
				t.Fatalf("%v: not all jobs admitted: %+v", pol, sum)
			}
		}
		run() // warm the scratch: first run per policy builds and caches
		run() // second run settles any lazily grown storage
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%v: %.1f allocs per run on a warm scratch, want 0", pol, n)
		}
	}
}
