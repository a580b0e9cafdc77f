package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"clustersched/internal/sim"
)

func TestPredictEmptyNodeWithFeasibleCandidate(t *testing.T) {
	c := newTS(t, 1)
	n := c.Node(0)
	out := n.PredictDelaysScratch(0, &Candidate{JobID: 7, RefWork: 100, AbsDeadline: 400})
	if len(out) != 1 {
		t.Fatalf("predictions = %d", len(out))
	}
	p := out[0]
	if p.JobID != 7 || p.Delay != 0 {
		t.Fatalf("prediction = %+v, want zero delay", p)
	}
	// Alone, work-conserving: finishes at believed work.
	if math.Abs(p.Finish-100) > 1e-6 {
		t.Fatalf("Finish = %v, want 100", p.Finish)
	}
}

func TestPredictEmptyNodeWithInfeasibleCandidate(t *testing.T) {
	c := newTS(t, 1)
	n := c.Node(0)
	out := n.PredictDelaysScratch(0, &Candidate{JobID: 7, RefWork: 500, AbsDeadline: 100})
	if len(out) != 1 {
		t.Fatalf("predictions = %d", len(out))
	}
	if out[0].Delay <= 0 {
		t.Fatalf("delay = %v, want positive: 500 s of work cannot meet a 100 s deadline", out[0].Delay)
	}
}

func TestPredictOversubscriptionDelaysSomeone(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	n := c.Node(0)
	// Existing job: share 0.8 (400 work / 500 deadline).
	if _, err := c.Submit(e, job(1, 0, 400, 500, 1), 400, []int{0}); err != nil {
		t.Fatal(err)
	}
	// Candidate adds share 0.5: total 1.3 — someone must be late.
	out := n.PredictDelaysScratch(0, &Candidate{JobID: 2, RefWork: 100, AbsDeadline: 200})
	var delayed int
	for _, p := range out {
		if p.Delay > 0 {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatalf("no predicted delay despite total share 1.3: %+v", out)
	}
}

func TestPredictFeasibleAdditionHasNoDelays(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	n := c.Node(0)
	if _, err := c.Submit(e, job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	out := n.PredictDelaysScratch(0, &Candidate{JobID: 2, RefWork: 100, AbsDeadline: 250})
	// Shares: 0.25 + 0.4 = 0.65 ≤ 1: all meet deadlines.
	for _, p := range out {
		if p.Delay != 0 {
			t.Fatalf("prediction %+v has delay with feasible total share", p)
		}
	}
}

func TestPredictSeesOverrunPastDeadlineJob(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	c.OnJobDone = func(*sim.Engine, *RunningJob) {}
	// Believed 10, real 1000, deadline 50: by t=100 the job is overrun AND
	// past its deadline. Libra's share test sees 0 demand; the predictor
	// must report a positive delay.
	if _, err := c.Submit(e, job(1, 0, 1000, 50, 1), 10, []int{0}); err != nil {
		t.Fatal(err)
	}
	e.At(100, sim.PriorityMonitor, func(e *sim.Engine) {
		if s := c.Node(0).LibraShare(e.Now()); s != 0 {
			t.Errorf("LibraShare = %v, want 0", s)
		}
		out := c.Node(0).PredictDelaysScratch(e.Now(), nil)
		if len(out) != 1 || out[0].Delay <= 0 {
			t.Errorf("predictor verdict = %+v, want positive delay", out)
		}
	})
	e.SetHorizon(150)
	runAll(t, e)
}

func TestPredictDoesNotMutateNode(t *testing.T) {
	e := sim.NewEngine()
	c := newTS(t, 1)
	n := c.Node(0)
	if _, err := c.Submit(e, job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	before := n.LibraShare(0)
	for i := 0; i < 10; i++ {
		n.PredictDelaysScratch(0, &Candidate{JobID: 2, RefWork: 50, AbsDeadline: 100})
	}
	if after := n.LibraShare(0); after != before {
		t.Fatalf("share changed %v -> %v after predictions", before, after)
	}
	if n.NumSlices() != 1 {
		t.Fatalf("slices = %d after predictions", n.NumSlices())
	}
}

func TestPredictMatchesExecutionForAccurateJobs(t *testing.T) {
	// The predictor and the live engine share conventions, so for accurate
	// estimates predicted finish times must match what actually happens.
	e := sim.NewEngine()
	c := newTS(t, 1)
	finish := map[int]float64{}
	c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) { finish[rj.Job.ID] = rj.Finish }
	if _, err := c.Submit(e, job(1, 0, 100, 200, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(e, job(2, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	pred := map[int]float64{}
	for _, p := range c.Node(0).PredictDelaysScratch(0, nil) {
		pred[p.JobID] = p.Finish
	}
	runAll(t, e)
	for id, f := range finish {
		if math.Abs(pred[id]-f) > 0.5 {
			t.Fatalf("job %d predicted %v actual %v", id, pred[id], f)
		}
	}
}

func TestPredictDelayNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		c, err := NewTimeShared(1, 168, DefaultConfig())
		if err != nil {
			return false
		}
		e := sim.NewEngine()
		nJobs := 1 + r.Intn(5)
		for i := 0; i < nJobs; i++ {
			run := 10 + r.Float64()*500
			dl := 10 + r.Float64()*1000
			est := run * (0.3 + r.Float64()*3)
			if _, err := c.Submit(e, job(i+1, 0, run, dl, 1), est, []int{0}); err != nil {
				return false
			}
		}
		out := c.Node(0).PredictDelaysScratch(0, &Candidate{JobID: 99, RefWork: 10 + r.Float64()*300, AbsDeadline: 10 + r.Float64()*500})
		if len(out) != nJobs+1 {
			return false
		}
		for _, p := range out {
			if p.Delay < 0 || math.IsNaN(p.Delay) || math.IsNaN(p.Finish) {
				return false
			}
			if p.Delay > 0 && p.Finish <= p.AbsDeadline {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictTerminatesOnTinyWork(t *testing.T) {
	c := newTS(t, 1)
	out := c.Node(0).PredictDelaysScratch(0, &Candidate{JobID: 1, RefWork: 1e-12, AbsDeadline: 10})
	if len(out) != 1 || out[0].Delay != 0 {
		t.Fatalf("tiny-work prediction = %+v", out)
	}
}
