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
// when the node changes: a node proven risky by an overdue exhausted
// slice is no longer proven risky once that slice has completed, though
// another slice is still running.
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
	cand := &Candidate{JobID: 3, RefWork: 10, AbsDeadline: 1e5}
	runTo := func(at float64) {
		t.Helper()
		e.SetHorizon(at)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTo(at)
	}
	runTo(100)
	if !n.ProvablyRisky(100, cand, 0.5) {
		t.Fatal("job 1 is exhausted and overdue at t=100, but the node is not proven risky")
	}
	runTo(800)
	if n.NumSlices() != 1 {
		t.Fatalf("%d slices at t=800, want job 2 alone", n.NumSlices())
	}
	if n.ProvablyRisky(800, cand, 0.5) {
		t.Fatal("proven risky after the overdue slice completed: the summary outlived its version")
	}
}
