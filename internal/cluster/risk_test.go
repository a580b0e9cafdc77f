package cluster

import (
	"testing"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// TestVersionBumpsOnEveryMutation pins the version contract the
// version-keyed caches (ProvablyRisky's summary among them) rely on: every
// path that changes a node's slices, their work or its speed bumps the
// version. TestVersionBumpsOnAllMutationPaths covers advance and
// retireCompleted; this test covers the rest. Every mutation runs at
// t = 0, so the bump is its own and not advance's.
func TestVersionBumpsOnEveryMutation(t *testing.T) {
	c, err := NewTimeShared(2, 168, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	n0, n1 := c.Node(0), c.Node(1)
	step := func(name string, mutate func(), nodes ...*PSNode) {
		t.Helper()
		before := make([]uint64, len(nodes))
		for i, n := range nodes {
			before[i] = n.Version()
		}
		mutate()
		for i, n := range nodes {
			if n.Version() <= before[i] {
				t.Errorf("%s: node %d version %d → %d, want a bump", name, n.ID(), before[i], n.Version())
			}
		}
	}
	gang := workload.Job{ID: 1, Runtime: 100, TraceEstimate: 100, NumProc: 2, Deadline: 1000}
	step("addSlice", func() {
		if _, err := c.Submit(e, gang, 100, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}, n0, n1)
	step("SetSpeed", func() { c.SetNodeSpeed(e, 1, 0.5) }, n1)
	// Crashing node 0 drops its slice (markDown) and the gang's slice on
	// node 1 (removeJobSlice), both at t = 0.
	step("markDown and removeJobSlice", func() { c.SetNodeDown(e, 0, true) }, n0, n1)
	step("markUp", func() { c.SetNodeDown(e, 0, false) }, n0)
}

// TestProvablyRiskyFollowsVersion checks that the risk summary is rebuilt
// when the node changes, and that the summary read at every step equals
// one rebuilt from scratch, every field of it. A node proven risky by an
// overdue exhausted slice is no longer proven once that slice has
// completed, though another slice is still running; a new slice that
// cannot meet its deadline proves it again through floor (a), and a
// speed-up that lets that slice finish in time clears it.
func TestProvablyRiskyFollowsVersion(t *testing.T) {
	c, err := NewTimeShared(1, 168, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	// Job 1 overruns its 10 s estimate and misses its 20 s deadline; job 2
	// has work and slack to spare.
	for _, j := range []workload.Job{
		{ID: 1, Runtime: 200, TraceEstimate: 10, NumProc: 1, Deadline: 20},
		{ID: 2, Runtime: 1000, TraceEstimate: 1000, NumProc: 1, Deadline: 1e5},
	} {
		if _, err := c.Submit(e, j, j.TraceEstimate, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	n := c.Node(0)
	cand := &Candidate{JobID: 9, RefWork: 10, AbsDeadline: 1e5}
	runTo := func(at float64) {
		t.Helper()
		e.SetHorizon(at)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTo(at)
	}
	check := func(what string, want RiskFloor) {
		t.Helper()
		now := e.Now()
		if got := n.ProvablyRisky(now, cand, 0.5); got != (want != NotProven) || n.ProvenBy() != want {
			t.Fatalf("%s: ProvablyRisky = %v by floor %d, want floor %d", what, got, n.ProvenBy(), want)
		}
		read := n.risk
		n.summarizeRisk()
		if read != n.risk {
			t.Fatalf("%s: the summary read %+v, rebuilt %+v: it outlived its version", what, read, n.risk)
		}
	}
	runTo(100)
	check("job 1 exhausted and overdue at t=100", FloorOverdue)
	runTo(800)
	if n.NumSlices() != 1 {
		t.Fatalf("%d slices at t=800, want job 2 alone", n.NumSlices())
	}
	check("job 1 completed by t=800", NotProven)
	// Job 3 needs 500 s by a deadline 100 s away.
	late := workload.Job{ID: 3, Submit: 800, Runtime: 500, TraceEstimate: 500, NumProc: 1, Deadline: 100}
	if _, err := c.Submit(e, late, late.TraceEstimate, []int{0}); err != nil {
		t.Fatal(err)
	}
	check("job 3 arrived doomed", FloorDoomed)
	runTo(810)
	check("10 s later", FloorDoomed)
	c.SetNodeSpeed(e, 0, 6)
	check("at speed 6 job 3 finishes in time", NotProven)
}

// TestCrossingFloorGuards pins floor (c)'s guards directly on
// crossingValue, where ProvablyRisky cannot show them all: the floor is
// above 1 on an overloaded node while every guard holds, and exactly 1
// (no floor) for a candidate past its deadline, once the urgent resident
// is overdue, and once a resident's believed work may have run out since
// lastT.
func TestCrossingFloorGuards(t *testing.T) {
	// node holds the given jobs, submitted at t = 0 with their estimates,
	// and has its summary built there.
	node := func(jobs ...workload.Job) *PSNode {
		c, err := NewTimeShared(1, 168, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		for _, j := range jobs {
			if _, err := c.Submit(e, j, j.TraceEstimate, []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		n := c.Node(0)
		n.summarizeRisk()
		return n
	}
	item := func(work, deadline float64) fluidItem { return fluidItem{believed: work, absDeadline: deadline} }
	// Two residents demanding 0.6 processors each: overloaded from the
	// start, job 1 the urgent one.
	pair := node(
		workload.Job{ID: 1, Runtime: 60, TraceEstimate: 60, NumProc: 1, Deadline: 100},
		workload.Job{ID: 2, Runtime: 120, TraceEstimate: 120, NumProc: 1, Deadline: 200},
	)
	// Job 1 demands 0.5 and job 2 0.4, so at speed 1 job 1 runs at 5/9
	// and exhausts its 25 s estimate at t = 45, before its deadline; a
	// candidate due 2 s on demanding 0.95 overloads the node.
	light := node(
		workload.Job{ID: 1, Runtime: 1000, TraceEstimate: 25, NumProc: 1, Deadline: 50},
		workload.Job{ID: 2, Runtime: 400, TraceEstimate: 400, NumProc: 1, Deadline: 1000},
	)
	for _, tc := range []struct {
		name   string
		n      *PSNode
		now    float64
		cand   fluidItem
		floors bool
	}{
		{"overloaded by its residents", pair, 0, item(1, 1e5), true},
		{"overloaded by its residents, 20 s on", pair, 20, item(1, 1e5), true},
		{"overloaded by the candidate", light, 0, item(1.9, 2), true},
		{"overloaded by the candidate, 40 s on", light, 40, item(1.9, 42), true},
		{"a candidate past its deadline", pair, 0, item(1, 0), false},
		{"the urgent resident overdue", pair, 100, item(90, 200), false},
		{"a resident run out at t = 45", light, 46, item(1.9, 48), false},
	} {
		if v := tc.n.crossingValue(tc.now, tc.cand); (v > 1) != tc.floors || (!tc.floors && v != 1) {
			t.Errorf("%s: floor %v, want a floor above 1: %v", tc.name, v, tc.floors)
		}
	}
}
