package cluster

import (
	"math"
	"testing"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

func job(id int, submit, runtime, deadline float64, numproc int) workload.Job {
	return workload.Job{
		ID: id, Submit: submit, Runtime: runtime,
		TraceEstimate: runtime, NumProc: numproc, Deadline: deadline,
	}
}

func newTS(t *testing.T, n int) *TimeShared {
	t.Helper()
	c, err := NewTimeShared(n, 168, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runAll(t *testing.T, e *sim.Engine) {
	t.Helper()
	e.MaxEvents = 1_000_000
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleJobAloneFinishesAtRuntime(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	var done *RunningJob
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { done = rj }
	j := job(1, 0, 100, 400, 1)
	if _, err := c.Submit(e, j, 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	runAll(t, e)
	if done == nil {
		t.Fatal("job never completed")
	}
	// Work-conserving: a lone job gets the whole node despite a share of
	// only 100/400.
	if math.Abs(done.Finish-100) > 1e-3 {
		t.Fatalf("finish = %v, want 100", done.Finish)
	}
	if !done.DeadlineMet() {
		t.Fatal("deadline not met")
	}
	if d := done.Delay(); d != 0 {
		t.Fatalf("Delay = %v, want 0", d)
	}
}

func TestStrictShareServesAtGuarantee(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.WorkConserving = false
	c, err := NewTimeShared(1, 168, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done *RunningJob
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { done = rj }
	j := job(1, 0, 100, 400, 1)
	if _, err := c.Submit(e, j, 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	runAll(t, e)
	// Strict share = 100/400 = 0.25, so the job takes its whole deadline.
	if done == nil || math.Abs(done.Finish-400) > 1e-2 {
		t.Fatalf("finish = %+v, want 400", done)
	}
	if !done.DeadlineMet() {
		t.Fatal("strict-share job should finish exactly at its deadline")
	}
}

func TestTwoEqualJobsShareAndMeetDeadlines(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	var finishes []float64
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { finishes = append(finishes, rj.Finish) }
	for i := 1; i <= 2; i++ {
		if _, err := c.Submit(e, job(i, 0, 100, 200, 1), 100, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, e)
	if len(finishes) != 2 {
		t.Fatalf("completions = %d", len(finishes))
	}
	for _, f := range finishes {
		// Each holds share 0.5 and has exactly 2x runtime of slack.
		if math.Abs(f-200) > 1e-2 {
			t.Fatalf("finish = %v, want 200", f)
		}
	}
}

func TestAccurateEstimatesFeasibleLoadMeetsAllDeadlines(t *testing.T) {
	// Σ shares stays below 1 at every admission, so every deadline must be
	// met under accurate estimates — the Libra invariant.
	e := sim.NewEngine()
	c := newTS(t, 1)
	met := 0
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) {
		if rj.DeadlineMet() {
			met++
		}
	}
	specs := []struct{ submit, runtime, deadline float64 }{
		{0, 100, 400},  // share .25
		{10, 50, 200},  // share ~.25
		{50, 80, 400},  // share .2
		{120, 30, 300}, // share .1
	}
	for i, s := range specs {
		s := s
		i := i
		e.At(s.submit, sim.PriorityArrival, func(e *sim.Engine) {
			if _, err := c.Submit(e, job(i+1, s.submit, s.runtime, s.deadline, 1), s.runtime, []int{0}); err != nil {
				t.Error(err)
			}
		})
	}
	runAll(t, e)
	if met != len(specs) {
		t.Fatalf("met %d of %d deadlines", met, len(specs))
	}
}

func TestOverestimatedJobStillFinishesAtRealRuntime(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	var done *RunningJob
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { done = rj }
	j := job(1, 0, 100, 1000, 1)
	// Scheduler believes 400 s; reality is 100 s.
	if _, err := c.Submit(e, j, 400, []int{0}); err != nil {
		t.Fatal(err)
	}
	runAll(t, e)
	if done == nil || math.Abs(done.Finish-100) > 1e-3 {
		t.Fatalf("finish = %+v, want 100 (real runtime drives completion)", done)
	}
}

func TestUnderestimatedJobOverrunsButCompletes(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	var finished []int
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { finished = append(finished, rj.Job.ID) }
	// Job 1 underestimates badly: believed 10 s, real 200 s, deadline 500.
	if _, err := c.Submit(e, job(1, 0, 200, 500, 1), 10, []int{0}); err != nil {
		t.Fatal(err)
	}
	// Job 2 arrives later with accurate numbers.
	e.At(50, sim.PriorityArrival, func(e *sim.Engine) {
		if _, err := c.Submit(e, job(2, 50, 100, 400, 1), 100, []int{0}); err != nil {
			t.Error(err)
		}
	})
	runAll(t, e)
	if len(finished) != 2 {
		t.Fatalf("finished = %v, want both jobs", finished)
	}
}

func TestOverrunJobGetsOnlyFloorWeight(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	finish := map[int]float64{}
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { finish[rj.Job.ID] = rj.Finish }
	// Job 1: believed 10, real 110, generous deadline.
	if _, err := c.Submit(e, job(1, 0, 110, 10000, 1), 10, []int{0}); err != nil {
		t.Fatal(err)
	}
	// Job 2 submitted at t=10 exactly when job 1 overruns: accurate 100 s,
	// deadline tight enough to demand nearly the whole node.
	e.At(10, sim.PriorityArrival, func(e *sim.Engine) {
		if _, err := c.Submit(e, job(2, 10, 100, 105, 1), 100, []int{0}); err != nil {
			t.Error(err)
		}
	})
	runAll(t, e)
	cfg := DefaultConfig()
	// From t=10, job 2's weight ≈ cap and job 1 is floored. Job 2's rate is
	// ≈ max/(max+floor); it must finish close to its 100 s runtime.
	wantRate := cfg.MaxWeight / (cfg.MaxWeight + cfg.OverrunFloorWeight)
	want := 10 + 100/wantRate
	if math.Abs(finish[2]-want) > 2 {
		t.Fatalf("job 2 finish = %v, want ≈ %v (overrun job must be floored)", finish[2], want)
	}
	if finish[1] <= finish[2] {
		t.Fatalf("overrun job 1 (finish %v) should outlast job 2 (%v)", finish[1], finish[2])
	}
}

func TestParallelJobFinishIsMaxOfSlices(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 2)
	finish := map[int]float64{}
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { finish[rj.Job.ID] = rj.Finish }
	// Competitor on node 0 only.
	if _, err := c.Submit(e, job(2, 0, 100, 200, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(e, job(1, 0, 100, 200, 2), 100, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	runAll(t, e)
	// Node 1 slice of job 1 runs alone (rate 1, done at 100); node 0 is
	// shared 50/50 (slices done at 200). Job 1 completes at 200.
	if math.Abs(finish[1]-200) > 1e-2 {
		t.Fatalf("parallel job finish = %v, want 200", finish[1])
	}
}

func TestSubmitValidation(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 2)
	j := job(1, 0, 100, 200, 2)
	if _, err := c.Submit(e, j, 100, []int{0}); err == nil {
		t.Error("wrong node count accepted")
	}
	if _, err := c.Submit(e, j, 100, []int{0, 0}); err == nil {
		t.Error("duplicate nodes accepted")
	}
	if _, err := c.Submit(e, j, 100, []int{0, 5}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := c.Submit(e, j, 0, []int{0, 1}); err == nil {
		t.Error("zero estimate accepted")
	}
}

func TestHeterogeneousRatingsScaleWork(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RefRating = 100
	c, err := NewTimeSharedHetero([]float64{200}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done *RunningJob
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { done = rj }
	// 100 reference-seconds on a node twice as fast = 50 node-seconds.
	if _, err := c.Submit(e, job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	runAll(t, e)
	if done == nil || math.Abs(done.Finish-50) > 1e-3 {
		t.Fatalf("finish = %+v, want 50 on double-speed node", done)
	}
	if mr := c.MinRuntime(done); math.Abs(mr-50) > 1e-9 {
		t.Fatalf("MinRuntime = %v, want 50", mr)
	}
}

func TestMinRuntimeUsesSlowestNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefRating = 100
	c, err := NewTimeSharedHetero([]float64{100, 200}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rj := &RunningJob{Job: job(1, 0, 60, 600, 2), NodeIDs: []int{0, 1}}
	if mr := c.MinRuntime(rj); math.Abs(mr-60) > 1e-9 {
		t.Fatalf("MinRuntime = %v, want 60 (slowest node)", mr)
	}
}

func TestUtilizationNeverExceedsOne(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	c.OnJobDone = func(*sim.Engine, *RunningJob) {}
	for i := 1; i <= 5; i++ {
		i := i
		at := float64(i * 7)
		e.At(at, sim.PriorityArrival, func(e *sim.Engine) {
			if _, err := c.Submit(e, job(i, at, 50, 120, 1), 40, []int{0}); err != nil {
				t.Error(err)
			}
		})
	}
	e.At(40, sim.PriorityMonitor, func(*sim.Engine) {
		if u := c.Node(0).Utilization(); u > 1+1e-9 {
			t.Errorf("utilization = %v > 1", u)
		}
	})
	runAll(t, e)
}

func TestRunningCount(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 2)
	c.OnJobDone = func(*sim.Engine, *RunningJob) {}
	if _, err := c.Submit(e, job(1, 0, 100, 500, 2), 100, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if c.Running() != 1 {
		t.Fatalf("Running = %d, want 1", c.Running())
	}
	runAll(t, e)
	if c.Running() != 0 {
		t.Fatalf("Running = %d after completion, want 0", c.Running())
	}
}

func TestNewTimeSharedRejectsBadArgs(t *testing.T) {
	if _, err := NewTimeShared(0, 168, DefaultConfig()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewTimeSharedHetero([]float64{100, -1}, DefaultConfig()); err == nil {
		t.Error("negative rating accepted")
	}
	bad := DefaultConfig()
	bad.RefRating = 0
	if _, err := NewTimeShared(1, 168, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestLibraShareConventions(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	n := c.Node(0)
	if s := n.LibraShare(0); s != 0 {
		t.Fatalf("empty node share = %v", s)
	}
	// Healthy slice: share = believed/remaining deadline.
	if _, err := c.Submit(e, job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if s := n.LibraShare(0); math.Abs(s-0.25) > 1e-9 {
		t.Fatalf("share = %v, want 0.25", s)
	}
	// With a candidate: + work/remaining deadline.
	if s := n.LibraShareWith(0, 50, 100); math.Abs(s-0.75) > 1e-9 {
		t.Fatalf("share with candidate = %v, want 0.75", s)
	}
}

// TestLibraShareWithCountsCandidateOnTheNode: on a node rated twice the
// reference, the candidate runs its reference work in half the time, so
// its share term is half of RefWork over the remaining deadline, in the
// node-seconds the residents' terms use.
func TestLibraShareWithCountsCandidateOnTheNode(t *testing.T) {
	cfg := DefaultConfig()
	c, err := NewTimeSharedHetero([]float64{2 * cfg.RefRating}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	const refWork, remaining = 50.0, 100.0
	want := refWork / remaining / 2
	if s := n.LibraShareWith(0, refWork, remaining); s != want {
		t.Fatalf("share with candidate = %v, want %v", s, want)
	}
	if s, ok := n.LibraShareWithLimit(0, refWork, remaining, 1); !ok || s != want {
		t.Fatalf("limited share = %v, %v, want %v, true", s, ok, want)
	}
}

func TestLibraShareIgnoresOverrunSlices(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	c.OnJobDone = func(*sim.Engine, *RunningJob) {}
	// Believed 10 s, real 1000 s: after t=10 the slice is overrun.
	if _, err := c.Submit(e, job(1, 0, 1000, 5000, 1), 10, []int{0}); err != nil {
		t.Fatal(err)
	}
	e.At(100, sim.PriorityMonitor, func(e *sim.Engine) {
		if s := c.Node(0).LibraShare(e.Now()); s != 0 {
			t.Errorf("share = %v at t=100, want 0: Libra must be blind to the overrun", s)
		}
	})
	e.SetHorizon(200)
	runAll(t, e)
}

func TestLibraSharePastDeadlineIsInfinite(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	c.OnJobDone = func(*sim.Engine, *RunningJob) {}
	// Deadline 50 but real/believed work 500: at t=100 the deadline has
	// passed with believed work remaining.
	if _, err := c.Submit(e, job(1, 0, 500, 50, 1), 500, []int{0}); err != nil {
		t.Fatal(err)
	}
	e.At(100, sim.PriorityMonitor, func(e *sim.Engine) {
		if s := c.Node(0).LibraShare(e.Now()); !math.IsInf(s, 1) {
			t.Errorf("share = %v, want +Inf for past-deadline slice", s)
		}
	})
	e.SetHorizon(200)
	runAll(t, e)
}

func TestProjectedBelievedBetweenEvents(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	if _, err := c.Submit(e, job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	// At t=40 (between events) the lone slice has run at rate 1.
	e.At(40, sim.PriorityMonitor, func(e *sim.Engine) {
		s := c.Node(0).LibraShare(e.Now())
		want := 60.0 / 360.0
		if math.Abs(s-want) > 1e-9 {
			t.Errorf("share at t=40 = %v, want %v", s, want)
		}
	})
	e.SetHorizon(50)
	runAll(t, e)
}
