package core

import (
	"math"
	"sort"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// TestServeScanFastPathsMatchReference is the decision differential at the
// daemon's scale: a serve_scan-shaped stream (512 nodes, jobs of up to 128
// processors, arrivals compressed to 2 %, the trace's own inaccurate
// estimates, seed 1) goes through LibraRisk once with every fast path and
// once with DisableFastPath, advancing the engine to each arrival the way
// the daemon applies an op. Every (accepted, reason) must be equal. Past
// the first 1500 arrivals, which the benchmark runs untimed to fill the
// cluster, the fast run also asks PSNode.ProvablyRisky about every busy
// node at every arrival. Exit (5) must prove most of them risky, and each
// of its floors must decide a floor share (see provenByFloorPct): at this
// shape most busy nodes are overloaded or hold an overdue exhausted
// slice. Of the busy nodes it does not prove, exit (7), the early accept,
// must prove a floor share safe (see safeFloorPct). The rest go through
// PredictDelaysWithin, and exit (6), the earliest-finish bound, must stop
// a floor share of them at a deadline crossing sooner than the retirement
// rule alone could (see retirementStopped).
func TestServeScanFastPathsMatchReference(t *testing.T) {
	const (
		nodes   = 512
		ops     = 3000
		preload = 1500 // the benchmark's untimed warm-up
	)
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Jobs, gcfg.Seed, gcfg.MaxProcs = ops, 1, 128
	jobs, err := workload.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := workload.DefaultDeadlineConfig()
	dcfg.Seed = 2
	if jobs, err = workload.AssignDeadlines(jobs, dcfg); err != nil {
		t.Fatal(err)
	}
	workload.ScaleArrivalsInPlace(jobs, 0.02)

	type decision struct {
		accepted bool
		reason   string
	}
	var busy, proven, safe int
	var floors [len(provenByFloorPct)]int
	var stops [stopKinds]int
	run := func(disable bool) []decision {
		c, err := cluster.NewTimeShared(nodes, 168, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := NewLibraRisk(c, metrics.NewRecorder())
		p.DisableFastPath = disable
		e := sim.NewEngine()
		out := make([]decision, len(jobs))
		for i, j := range jobs {
			if j.Submit > e.Now() {
				e.SetHorizon(j.Submit)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				e.AdvanceTo(j.Submit)
			}
			estimate := j.EstimateAt(100)
			if !disable && i >= preload {
				cand := &cluster.Candidate{JobID: j.ID, RefWork: estimate, AbsDeadline: j.AbsDeadline()}
				for n := 0; n < c.Len(); n++ {
					if node := c.Node(n); node.NumSlices() > 0 {
						busy++
						limit := p.SigmaThreshold + sigmaTolerance
						if node.ProvablyRisky(e.Now(), cand, limit) {
							proven++
							floors[node.ProvenBy()]++
							continue
						}
						if node.ProvablySafe(e.Now(), cand) {
							safe++
							continue
						}
						stops[earliestFinishStop(e.Now(), node, cand, limit)]++
					}
				}
			}
			out[i].accepted, out[i].reason = p.Submit(e, j, estimate)
		}
		return out
	}
	want, got := run(true), run(false)
	accepted := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d (job %d): fast paths decide %+v, reference %+v", i, jobs[i].ID, got[i], want[i])
		}
		if got[i].accepted {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(jobs) {
		t.Fatalf("%d of %d accepted: the stream does not exercise both outcomes", accepted, len(jobs))
	}
	pct := func(k int) float64 { return 100 * float64(k) / float64(busy) }
	t.Logf("%d of %d accepted; of %d busy-node evaluations exit (5) proved %d risky (%.2f %%): %.2f %% by an overdue exhausted slice, %.2f %% by a doomed resident, %.2f %% by the candidate's earliest finish and %.2f %% by an overloaded node's first crossing",
		accepted, len(jobs), busy, proven, pct(proven), pct(floors[cluster.FloorOverdue]), pct(floors[cluster.FloorDoomed]),
		pct(floors[cluster.FloorCandidate]), pct(floors[cluster.FloorCrossing]))
	t.Logf("exit (7) proved %d of the rest safe (%.2f %% of busy-node evaluations)", safe, pct(safe))
	t.Logf("exit (6) stopped %d before the first fluid step (%.2f %%), %d at a deadline crossing (%.2f %%) and %d at a late retirement (%.2f %%)",
		stops[stopAtEntry], pct(stops[stopAtEntry]), stops[stopAtCrossing], pct(stops[stopAtCrossing]),
		stops[stopAtLateRetirement], pct(stops[stopAtLateRetirement]))
	if pct(proven) < provenFloorPct {
		t.Errorf("exit (5) proved %.2f %% of busy-node evaluations risky, want at least %g %%", pct(proven), provenFloorPct)
	}
	for f, floor := range provenByFloorPct {
		if got := pct(floors[f]); got < floor {
			t.Errorf("exit (5)'s floor %d decided %.2f %% of busy-node evaluations, want at least %g %%", f, got, floor)
		}
	}
	if got := pct(safe); got < safeFloorPct {
		t.Errorf("exit (7) proved %.2f %% of busy-node evaluations safe, want at least %g %%", got, safeFloorPct)
	}
	if stops[stopAtEntry] != 0 {
		t.Errorf("exit (6) stopped %d busy-node evaluations before the first fluid step, want none: the prediction folds no entry floor", stops[stopAtEntry])
	}
	if pct(stops[stopAtCrossing]) < crossingFloorPct {
		t.Errorf("exit (6) stopped %.2f %% of busy-node evaluations at a crossing, want at least %g %%", pct(stops[stopAtCrossing]), crossingFloorPct)
	}
}

// Floors under the shares of busy-node evaluations decided in
// TestServeScanFastPathsMatchReference, each set below its measured share
// so that dropping any branch fails the test. Exit (5) proves 91.5 % in
// all. provenByFloorPct is indexed by cluster.RiskFloor, which names the
// first floor that proved a node, in ProvablyRisky's order: an overdue
// exhausted slice 64.2 %, a doomed resident 0.13 %, the candidate's
// earliest finish 7.0 % and an overloaded node's first crossing 20.2 %.
// Exit (6) stops 5.5 % at a deadline crossing and none before the first
// fluid step, because exit (5) goes first: floors (a) and (b) are the
// earliest-finish bound taken at lastT, so the prediction folds no entry
// floor, and floor (c) proves most of the overloads its crossing fold
// would stop. The 0.05 % an entry fold once stopped now run past the
// first step, to the same decisions. Of the busy nodes exit (5) leaves,
// exit (7) proves 2.41 % of all busy-node evaluations safe (18 470, 28 %
// of the 64 919 left) with no fluid run.
var provenByFloorPct = [...]float64{
	cluster.NotProven:      0,
	cluster.FloorOverdue:   60,
	cluster.FloorDoomed:    0.08,
	cluster.FloorCandidate: 5,
	cluster.FloorCrossing:  15,
}

const (
	provenFloorPct   = 88.0
	crossingFloorPct = 4.0
	safeFloorPct     = 2.0
)

// stopKind attributes a bounded prediction's stop.
type stopKind int

const (
	notStoppedEarly      stopKind = iota // completed, or stopped by the retirement rule, exit (4)
	stopAtEntry                          // exit (6) before the first fluid step
	stopAtCrossing                       // exit (6) mid-run, before any item retired late
	stopAtLateRetirement                 // exit (6) mid-run, after an item retired late
	stopKinds
)

// earliestFinishStop runs node's bounded prediction for cand and
// attributes its stop. A stop is exit (6)'s when it came with fewer
// verdicts than the retirement rule alone needs. Mid-run, before any item
// has retired late, the large value that decided is the earliest-finish
// floor folded at a deadline crossing: without that fold the class is
// empty.
func earliestFinishStop(now float64, node *cluster.PSNode, cand *cluster.Candidate, limit float64) stopKind {
	partial, ok := node.PredictDelaysWithin(now, cand, limit)
	if ok {
		return notStoppedEarly
	}
	got, steps, kind := len(partial), node.PredictSteps(), stopAtCrossing
	for _, pd := range partial {
		if pd.Finish > now && pd.Delay > 0 {
			kind = stopAtLateRetirement
		}
	}
	switch {
	case got >= retirementStopped(now, node.PredictDelaysScratch(now, cand), limit):
		return notStoppedEarly
	case steps == 0:
		return stopAtEntry
	}
	return kind
}

// retirementStopped is the number of verdicts PredictDelaysWithin's
// retirement rule alone, exit (4), would have produced before stopping on
// full's values: it folds them in retirement (Finish) order, a whole
// retirement instant at a time, and stops once hi − lo clears the spread.
// It returns len(full) when the rule never stops.
func retirementStopped(now float64, full []cluster.PredictedDelay, limit float64) int {
	byFinish := append([]cluster.PredictedDelay(nil), full...)
	sort.SliceStable(byFinish, func(i, j int) bool { return byFinish[i].Finish < byFinish[j].Finish })
	spread := 2 * limit * math.Sqrt(2*float64(len(full)))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, pd := range byFinish {
		if math.IsInf(pd.Finish, 1) {
			break
		}
		v := cluster.DeadlineDelay(pd.Delay, pd.AbsDeadline-now)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		if i+1 < len(byFinish) && byFinish[i+1].Finish == pd.Finish {
			continue
		}
		if hi-lo > spread+1e-12*hi {
			return i + 1
		}
	}
	return len(full)
}
