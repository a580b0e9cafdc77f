package sched

import (
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

func sjob(id int, submit, runtime, deadline float64, numproc int) workload.Job {
	return workload.Job{
		ID: id, Submit: submit, Runtime: runtime,
		TraceEstimate: runtime, NumProc: numproc, Deadline: deadline,
	}
}

func newSS(t *testing.T, n int) (*sim.Engine, *cluster.SpaceShared, *metrics.Recorder) {
	t.Helper()
	c, err := cluster.NewSpaceShared(n, 168, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewEngine(), c, metrics.NewRecorder()
}

// --- FCFS ---------------------------------------------------------------

func TestFCFSRunsInArrivalOrder(t *testing.T) {
	e, c, rec := newSS(t, 1)
	p := NewFCFS(c, rec)
	var order []int
	base := c.OnJobDone
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		order = append(order, rj.Job.ID)
		base(e, rj)
	}
	// Job 2 has the earlier deadline but FCFS ignores that.
	p.Submit(e, sjob(1, 0, 10, 900, 1), 10)
	p.Submit(e, sjob(2, 0, 10, 100, 1), 10)
	p.Submit(e, sjob(3, 0, 10, 500, 1), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFCFSHeadBlocks(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewFCFS(c, rec)
	p.Submit(e, sjob(1, 0, 100, 500, 2), 100)
	p.Submit(e, sjob(2, 0, 10, 500, 2), 10)
	p.Submit(e, sjob(3, 0, 10, 500, 1), 10) // could run, FCFS won't
	if c.Running() != 1 {
		t.Fatalf("running = %d, want 1", c.Running())
	}
	if p.QueueLen() != 2 {
		t.Fatalf("queue = %d", p.QueueLen())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	if s := rec.Summarize(); s.Met != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestFCFSDeadlineAwareRejectsExpired(t *testing.T) {
	e, c, rec := newSS(t, 1)
	p := NewFCFS(c, rec)
	p.Submit(e, sjob(1, 0, 100, 500, 1), 100)
	p.Submit(e, sjob(2, 0, 10, 50, 1), 10) // expires while queued
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	s := rec.Summarize()
	if s.Rejected != 1 || s.Met != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestFCFSRejectsOversized(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewFCFS(c, rec)
	p.Submit(e, sjob(1, 0, 10, 100, 3), 10)
	rec.Flush()
	if s := rec.Summarize(); s.Rejected != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

// --- Backfilling ----------------------------------------------------------

func TestEASYBackfillsShortJobIntoHole(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewBackfill(c, rec, EASYBackfill)
	var order []int
	base := c.OnJobDone
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		order = append(order, rj.Job.ID)
		base(e, rj)
	}
	// Job 1 runs on one node until t=100. Job 2 (head) needs both nodes →
	// reserved at t=100. Job 3 needs 1 node for 50 ≤ head's reserved
	// start → backfills immediately. FCFS would have made job 3 wait.
	p.Submit(e, sjob(1, 0, 100, 900, 1), 100)
	p.Submit(e, sjob(2, 0, 50, 900, 2), 50)
	p.Submit(e, sjob(3, 0, 50, 900, 1), 50)
	if c.Running() != 2 {
		t.Fatalf("running = %d, want job 3 backfilled alongside job 1", c.Running())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != 3 {
		t.Fatalf("order = %v, want job 3 to finish first (it backfilled)", order)
	}
	rec.Flush()
	if s := rec.Summarize(); s.Met != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestEASYDoesNotDelayHeadReservation(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewBackfill(c, rec, EASYBackfill)
	// Job 1 occupies one node until 100; head job 2 reserves both at 100.
	p.Submit(e, sjob(1, 0, 100, 900, 1), 100)
	p.Submit(e, sjob(2, 0, 50, 900, 2), 50)
	// Job 3 would run 200 > head's reserved start on the head's node →
	// must NOT backfill.
	p.Submit(e, sjob(3, 0, 200, 900, 1), 200)
	if c.Running() != 1 {
		t.Fatalf("running = %d, want job 3 held back", c.Running())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	if s := rec.Summarize(); s.Met != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestConservativeBackfillHonorsAllReservations(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewBackfill(c, rec, ConservativeBackfill)
	p.Submit(e, sjob(1, 0, 100, 2000, 1), 100) // node A until 100
	p.Submit(e, sjob(2, 0, 50, 2000, 2), 50)   // reserved at 100
	p.Submit(e, sjob(3, 0, 100, 2000, 1), 100) // reserved at 150 (after 2)
	p.Submit(e, sjob(4, 0, 40, 2000, 1), 40)   // fits before 2's start → backfills
	if c.Running() != 2 {
		t.Fatalf("running = %d, want job 4 backfilled", c.Running())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	if s := rec.Summarize(); s.Met != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestBackfillLazyDeadlineRejection(t *testing.T) {
	e, c, rec := newSS(t, 1)
	p := NewBackfill(c, rec, EASYBackfill)
	p.Submit(e, sjob(1, 0, 100, 900, 1), 100)
	p.Submit(e, sjob(2, 0, 10, 50, 1), 10) // expires while queued
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	s := rec.Summarize()
	if s.Rejected != 1 || s.Met != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestBackfillModesWithGeneratedWorkload(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Jobs = 150
	cfg.MaxProcs = 8
	cfg.MeanInterarrival = 300
	cfg.MeanRuntime = 900
	cfg.MaxRuntime = 7200
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = workload.AssignDeadlines(jobs, workload.DefaultDeadlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	fulfilled := map[BackfillMode]float64{}
	for _, mode := range []BackfillMode{EASYBackfill, ConservativeBackfill} {
		e, c, rec := newSS(t, 8)
		p := NewBackfill(c, rec, mode)
		if err := core.RunSimulation(e, p, rec, jobs, 0); err != nil {
			t.Fatal(err)
		}
		s := rec.Summarize()
		if s.Unfinished != 0 {
			t.Fatalf("%v: unfinished = %d", mode, s.Unfinished)
		}
		if s.Missed != 0 {
			t.Fatalf("%v: missed = %d with accurate estimates", mode, s.Missed)
		}
		fulfilled[mode] = s.PctFulfilled
	}
	// And both should beat plain FCFS on the same workload.
	e, c, rec := newSS(t, 8)
	p := NewFCFS(c, rec)
	if err := core.RunSimulation(e, p, rec, jobs, 0); err != nil {
		t.Fatal(err)
	}
	fcfs := rec.Summarize().PctFulfilled
	for mode, pct := range fulfilled {
		if pct < fcfs-1e-9 {
			t.Errorf("%v fulfilled %.1f%% < FCFS %.1f%%", mode, pct, fcfs)
		}
	}
}

func TestDeadlineOrderedBackfillRunsUrgentFirst(t *testing.T) {
	e, c, rec := newSS(t, 1)
	p := NewBackfill(c, rec, EASYBackfill)
	p.DeadlineOrdered = true
	if p.Name() != "Backfill-EASY-EDF" {
		t.Fatalf("Name = %q", p.Name())
	}
	var order []int
	base := c.OnJobDone
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		order = append(order, rj.Job.ID)
		base(e, rj)
	}
	// All at t=0 on one node: deadline order forces 3, 1, 2 after the
	// first (already started) job.
	p.Submit(e, sjob(1, 0, 10, 500, 1), 10)
	p.Submit(e, sjob(2, 0, 10, 900, 1), 10)
	p.Submit(e, sjob(3, 0, 10, 400, 1), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 2}
	for i, id := range want {
		if i >= len(order) || order[i] != id {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeadlineOrderedBackfillStillBackfills(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewBackfill(c, rec, EASYBackfill)
	p.DeadlineOrdered = true
	// Same hole-filling scenario as the FCFS variant: job 3 backfills.
	p.Submit(e, sjob(1, 0, 100, 900, 1), 100)
	p.Submit(e, sjob(2, 0, 50, 600, 2), 50)
	p.Submit(e, sjob(3, 0, 50, 901, 1), 50)
	if c.Running() != 2 {
		t.Fatalf("running = %d, want job 3 backfilled", c.Running())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	if s := rec.Summarize(); s.Met != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

// --- QoPS -----------------------------------------------------------------

func TestQoPSZeroSlackRejectsInfeasible(t *testing.T) {
	e, c, rec := newSS(t, 1)
	p := NewQoPS(c, rec, 0)
	p.Submit(e, sjob(1, 0, 100, 120, 1), 100)
	// Job 2 cannot finish by its deadline behind job 1.
	p.Submit(e, sjob(2, 0, 100, 150, 1), 100)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	s := rec.Summarize()
	if s.Rejected != 1 || s.Met != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestQoPSSlackAdmitsWhatHardDeadlinesReject(t *testing.T) {
	// With slack 1.0, job 2 may slip one estimated runtime past its
	// deadline: planned finish 200 ≤ 150 + 100 → admitted.
	e, c, rec := newSS(t, 1)
	p := NewQoPS(c, rec, 1.0)
	p.Submit(e, sjob(1, 0, 100, 120, 1), 100)
	p.Submit(e, sjob(2, 0, 100, 150, 1), 100)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	s := rec.Summarize()
	if s.Rejected != 0 || s.Completed != 2 {
		t.Fatalf("summary = %+v, want both admitted", s)
	}
	// Job 2 finishes at 200 > 150: a soft-deadline miss by design.
	if s.Missed != 1 {
		t.Fatalf("summary = %+v, want one (tolerated) miss", s)
	}
}

func TestQoPSUrgentLaterJobPreemptsQueuePosition(t *testing.T) {
	e, c, rec := newSS(t, 1)
	p := NewQoPS(c, rec, 0.5)
	var order []int
	base := c.OnJobDone
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		order = append(order, rj.Job.ID)
		base(e, rj)
	}
	p.Submit(e, sjob(1, 0, 50, 1000, 1), 50)
	p.Submit(e, sjob(2, 0, 50, 900, 1), 50) // loose deadline
	p.Submit(e, sjob(3, 0, 50, 200, 1), 50) // urgent, arrives last
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[1] != 3 {
		t.Fatalf("order = %v, want urgent job 3 scheduled ahead of job 2", order)
	}
	rec.Flush()
	if s := rec.Summarize(); s.Met != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestQoPSRejectsOversized(t *testing.T) {
	e, c, rec := newSS(t, 2)
	p := NewQoPS(c, rec, 1)
	p.Submit(e, sjob(1, 0, 10, 100, 3), 10)
	rec.Flush()
	if s := rec.Summarize(); s.Rejected != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestPolicyNames(t *testing.T) {
	_, c1, r1 := newSS(t, 1)
	if got := NewFCFS(c1, r1).Name(); got != "FCFS" {
		t.Errorf("FCFS name = %q", got)
	}
	_, c2, r2 := newSS(t, 1)
	if got := NewBackfill(c2, r2, EASYBackfill).Name(); got != "Backfill-EASY" {
		t.Errorf("EASY name = %q", got)
	}
	_, c3, r3 := newSS(t, 1)
	if got := NewBackfill(c3, r3, ConservativeBackfill).Name(); got != "Backfill-conservative" {
		t.Errorf("conservative name = %q", got)
	}
	_, c4, r4 := newSS(t, 1)
	if got := NewQoPS(c4, r4, 1).Name(); got != "QoPS" {
		t.Errorf("QoPS name = %q", got)
	}
}

// Interface conformance: all extension policies satisfy core.Policy.
var (
	_ core.Policy = (*FCFS)(nil)
	_ core.Policy = (*Backfill)(nil)
	_ core.Policy = (*QoPS)(nil)
)
