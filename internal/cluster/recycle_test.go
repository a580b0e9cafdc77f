package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clustersched/internal/sim"
)

// TestArenaSlotsBoundedByRunningJobs checks that job storage is recycled:
// after thousands of sequential completions of mixed-width gangs, the
// arenas have handed out no more slots than the peak number of jobs (and
// slices) running at once, and every slot is back on the free list.
func TestArenaSlotsBoundedByRunningJobs(t *testing.T) {
	const nodes, jobs = 8, 3000
	c := newTS(t, nodes)
	e := sim.NewEngine()
	completed, peakJobs, peakSlices := 0, 0, 0
	c.OnJobDone = func(*sim.Engine, *RunningJob) { completed++ }
	rng := rand.New(rand.NewSource(1))
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < jobs; i++ {
		width := 1 + rng.Intn(3)
		runtime := 20 + 40*rng.Float64()
		e.At(float64(15*i), sim.PriorityArrival, func(e *sim.Engine) {
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			if _, err := c.Submit(e, job(i, e.Now(), runtime, 10*runtime, width), runtime, ids[:width]); err != nil {
				t.Fatal(err)
			}
			peakJobs = max(peakJobs, c.Running())
			slices := 0
			for _, n := range c.nodes {
				slices += n.NumSlices()
			}
			peakSlices = max(peakSlices, slices)
		})
	}
	runAll(t, e)
	if completed != jobs {
		t.Fatalf("%d of %d jobs completed", completed, jobs)
	}
	if peakJobs < 3 || peakJobs >= jobs/10 {
		t.Fatalf("peak of %d concurrent jobs: the workload must overlap jobs, but few enough to test recycling", peakJobs)
	}
	if got := c.rjArena.slots(); got > peakJobs {
		t.Errorf("RunningJob arena handed out %d slots, peak running jobs %d", got, peakJobs)
	}
	if got := c.slArena.slots(); got > peakSlices {
		t.Errorf("slice arena handed out %d slots, peak live slices %d", got, peakSlices)
	}
	if c.rjArena.inUse() != 0 || c.slArena.inUse() != 0 {
		t.Errorf("slots still in use after every job finished: %d jobs, %d slices", c.rjArena.inUse(), c.slArena.inUse())
	}
}

// recycleScript is one seeded run for TestRecyclingMatchesFreshCluster:
// gangs of mixed width arrive on random up nodes while nodes crash and
// recover. A killed job is resubmitted from its handler with its remaining
// work, so new jobs are allocated while the killed one is still live. The
// returned log holds every completion and kill with exact float bits.
func recycleScript(t *testing.T, c *TimeShared, e *sim.Engine, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := c.Len()
	// Runs differ in scale so a reused cluster needs more slots, and wider
	// node-ID storage, than the runs before it.
	jobs := 50 + rng.Intn(400)
	maxWidth := 1 + rng.Intn(nodes)
	var log strings.Builder
	pick := func(width int) []int {
		var up []int
		for _, i := range rng.Perm(nodes) {
			if !c.Node(i).Down() {
				up = append(up, i)
			}
		}
		if len(up) < width {
			return nil
		}
		return up[:width]
	}
	c.OnJobDone = func(e *sim.Engine, rj *RunningJob) {
		fmt.Fprintf(&log, "done %d t=%x start=%x nodes=%v min=%x\n", rj.Job.ID,
			math.Float64bits(rj.Finish), math.Float64bits(rj.Start), rj.NodeIDs, math.Float64bits(c.MinRuntime(rj)))
	}
	c.OnJobKilled = func(e *sim.Engine, kj KilledJob) {
		fmt.Fprintf(&log, "kill %d t=%x nodes=%v rem=%x est=%x\n", kj.Job.Job.ID, math.Float64bits(e.Now()),
			kj.Job.NodeIDs, math.Float64bits(kj.RemainingRuntime), math.Float64bits(kj.RemainingEstimate))
		j := kj.Job.Job
		j.Runtime = kj.RemainingRuntime
		if ids := pick(j.NumProc); ids != nil {
			if _, err := c.Submit(e, j, kj.RemainingEstimate, ids); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < jobs; i++ {
		at := float64(i) * (2 + 8*rng.Float64())
		width := 1 + rng.Intn(maxWidth)
		runtime := 5 + 60*rng.Float64()
		estimate := runtime * (0.5 + rng.Float64())
		deadline := runtime * (1 + 4*rng.Float64())
		e.At(at, sim.PriorityArrival, func(e *sim.Engine) {
			if ids := pick(width); ids != nil {
				if _, err := c.Submit(e, job(i, e.Now(), runtime, deadline, width), estimate, ids); err != nil {
					t.Fatal(err)
				}
			}
		})
		if rng.Intn(8) == 0 {
			node := rng.Intn(nodes)
			e.At(at+rng.Float64(), sim.PriorityFault, func(e *sim.Engine) { c.SetNodeDown(e, node, true) })
			e.At(at+20*rng.Float64()+1, sim.PriorityFault, func(e *sim.Engine) { c.SetNodeDown(e, node, false) })
		}
	}
	runAll(t, e)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Running() != 0 || c.rjArena.inUse() != 0 || c.slArena.inUse() != 0 {
		t.Fatalf("seed %d: %d jobs running, %d job and %d slice slots in use after the run",
			seed, c.Running(), c.rjArena.inUse(), c.slArena.inUse())
	}
	return log.String()
}

// TestRecyclingMatchesFreshCluster reuses one cluster and engine across
// Reset for a series of runs and requires each run's completion and kill
// log to be byte-identical to the same run on a fresh cluster. Recycled
// slots and the node-ID storage they keep across Reset must never leak
// one job's state into another's.
func TestRecyclingMatchesFreshCluster(t *testing.T) {
	const nodes = 12
	reused := newTS(t, nodes)
	re := sim.NewEngine()
	kills := 0
	for seed := int64(1); seed <= 12; seed++ {
		re.Reset()
		reused.Reset()
		got := recycleScript(t, reused, re, seed)
		want := recycleScript(t, newTS(t, nodes), sim.NewEngine(), seed)
		if got != want {
			t.Fatalf("seed %d: reused cluster's log differs from a fresh cluster's: %s", seed, firstDiff(got, want))
		}
		kills += strings.Count(got, "kill ")
	}
	if kills == 0 {
		t.Fatal("no job was killed: the script does not exercise the kill path")
	}
}

// firstDiff describes the first line where two logs differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  reused %s\n  fresh  %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(g), len(w))
}
