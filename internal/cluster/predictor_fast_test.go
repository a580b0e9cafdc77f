package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// loadScenario places a set of slices on node 0 of a fresh single-node
// cluster and advances the engine by steps so the node reaches a
// non-trivial state (progress accrued, possibly overruns and retired
// slices).
type loadScenario struct {
	name string
	cfg  func() Config
	// jobs are (runtime, estimate, deadline) triples submitted at t=0.
	jobs [][3]float64
	// runUntil advances the engine to this time before predicting (0
	// means predict against the freshly loaded node).
	runUntil float64
	// now is the prediction instant.
	now  float64
	cand *Candidate
}

func predictorScenarios() []loadScenario {
	wc := DefaultConfig
	strict := func() Config {
		cfg := DefaultConfig()
		cfg.WorkConserving = false
		return cfg
	}
	return []loadScenario{
		{name: "empty node no candidate", cfg: wc, now: 10},
		{name: "empty node with candidate", cfg: wc, now: 10,
			cand: &Candidate{JobID: 9, RefWork: 100, AbsDeadline: 400}},
		{name: "single on-time slice", cfg: wc,
			jobs: [][3]float64{{100, 100, 400}}, now: 0},
		{name: "overrun slice", cfg: wc,
			// Estimate 50 exhausts at t=50; predicting at t=60 sees an
			// overrun slice with believed work 0.
			jobs: [][3]float64{{200, 50, 400}}, runUntil: 60, now: 60,
			cand: &Candidate{JobID: 9, RefWork: 100, AbsDeadline: 300}},
		{name: "past-deadline slice", cfg: wc,
			// Deadline 80 passes while believed work remains: the slice
			// demands a full processor and is predicted late.
			jobs: [][3]float64{{200, 200, 80}, {100, 100, 500}}, runUntil: 100, now: 100,
			cand: &Candidate{JobID: 9, RefWork: 50, AbsDeadline: 600}},
		{name: "contended mixed deadlines", cfg: wc,
			jobs:     [][3]float64{{300, 250, 500}, {200, 220, 350}, {150, 150, 900}, {400, 80, 600}},
			runUntil: 120, now: 130,
			cand: &Candidate{JobID: 9, RefWork: 250, AbsDeadline: 450}},
		{name: "strict shares", cfg: strict,
			jobs: [][3]float64{{300, 250, 500}, {200, 220, 350}}, runUntil: 50, now: 75,
			cand: &Candidate{JobID: 9, RefWork: 250, AbsDeadline: 450}},
		{name: "infeasible candidate on empty node", cfg: wc, now: 0,
			cand: &Candidate{JobID: 9, RefWork: 500, AbsDeadline: 100}},
	}
}

// buildScenario returns the loaded node ready for prediction.
func buildScenario(t *testing.T, sc loadScenario) *PSNode {
	t.Helper()
	c, err := NewTimeShared(1, 168, sc.cfg())
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	for i, spec := range sc.jobs {
		j := job(i+1, 0, spec[0], spec[2], 1)
		j.TraceEstimate = spec[1]
		if _, err := c.Submit(e, j, spec[1], []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if sc.runUntil > 0 {
		e.MaxEvents = 1_000_000
		e.SetHorizon(sc.runUntil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return c.Node(0)
}

// TestPredictScratchMatchesNaive proves the scratch fast path and the
// reference implementation are value- and order-identical, including on
// the overrun, past-deadline, and empty-node edge cases, and that the
// scratch buffers are reusable across calls without corruption.
func TestPredictScratchMatchesNaive(t *testing.T) {
	for _, sc := range predictorScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			n := buildScenario(t, sc)
			want := n.predictDelaysNaive(sc.now, sc.cand)
			for round := 0; round < 3; round++ {
				got := n.PredictDelaysScratch(sc.now, sc.cand)
				if len(got) != len(want) {
					t.Fatalf("round %d: %d predictions, want %d", round, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("round %d: prediction[%d] = %+v, want %+v", round, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPredictorMatchesNaiveOnPaperStream holds the predictor to its naive
// reference on the paper's workload: 3000 jobs on 128 nodes with exact
// (0 %) and trace (100 %) estimates, each job placed by Algorithm 1's
// σ = 0 rule with FirstFit selection, computed from the reference
// verdicts. At every arrival, on every busy node, PredictDelaysScratch
// must equal the reference bit for bit. PredictDelaysWithin and
// ProvablyRisky at the σ = 0 limit may stop early or prove the node risky
// only where the reference σ exceeds that limit; otherwise
// PredictDelaysWithin must equal the reference too.
func TestPredictorMatchesNaiveOnPaperStream(t *testing.T) {
	gen, err := workload.Generate(workload.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.AssignDeadlines(gen, workload.DefaultDeadlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// σ = 0 with LibraRisk's tolerance for float dust.
	const limit = 1e-9
	for _, pct := range []float64{0, 100} {
		t.Run(fmt.Sprintf("inaccuracy=%g", pct), func(t *testing.T) {
			t.Parallel()
			c, err := NewTimeShared(workload.SDSCSP2Nodes, workload.SDSCSP2Rating, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			c.OnJobDone = func(*sim.Engine, *RunningJob) {}
			e := sim.NewEngine()
			var accepted, busy, stopped int
			var picked []int
			for _, j := range jobs {
				e.SetHorizon(j.Submit)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				e.AdvanceTo(j.Submit)
				now, est := e.Now(), j.EstimateAt(pct)
				cand := &Candidate{JobID: j.ID, RefWork: est, AbsDeadline: j.AbsDeadline()}
				picked = picked[:0]
				for i := 0; i < c.Len(); i++ {
					n := c.Node(i)
					sigma := 0.0
					if n.NumSlices() > 0 {
						busy++
						want := n.predictDelaysNaive(now, cand)
						var w sim.Welford
						for _, pd := range want {
							w.Add(DeadlineDelay(pd.Delay, pd.AbsDeadline-now))
						}
						sigma = w.StdDevPop()
						where := fmt.Sprintf("job %d node %d at t=%v (σ %g)", j.ID, i, now, sigma)
						if got := n.PredictDelaysScratch(now, cand); !sameVerdicts(got, want, true) {
							t.Fatalf("%s: scratch verdicts %+v, reference %+v", where, got, want)
						}
						got, ok := n.PredictDelaysWithin(now, cand, limit)
						if !sameVerdicts(got, want, ok) {
							t.Fatalf("%s: bounded verdicts %+v (ok=%v), reference %+v", where, got, ok, want)
						}
						if !ok {
							stopped++
						}
						if (!ok || n.ProvablyRisky(now, cand, limit)) && !(sigma > limit) {
							t.Fatalf("%s: proved risky (ok=%v) at limit %g", where, ok, limit)
						}
					}
					if sigma <= limit && len(picked) < j.NumProc {
						picked = append(picked, i)
					}
				}
				if len(picked) == j.NumProc {
					if _, err := c.Submit(e, j, est, picked); err != nil {
						t.Fatal(err)
					}
					accepted++
				}
			}
			if accepted == 0 || accepted == len(jobs) || stopped == 0 {
				t.Fatalf("degenerate stream: %d of %d accepted, %d of %d busy-node predictions stopped early",
					accepted, len(jobs), stopped, busy)
			}
		})
	}
}

// sameVerdicts reports whether got equals the reference want bit for bit:
// verdict for verdict when complete, or, for a bounded prediction that
// stopped early, each verdict it did produce against want's verdict for
// the same job.
func sameVerdicts(got, want []PredictedDelay, complete bool) bool {
	if complete && len(got) != len(want) {
		return false
	}
	for i, g := range got {
		k := i
		if !complete {
			k = sort.Search(len(want), func(k int) bool { return want[k].JobID >= g.JobID })
			if k == len(want) {
				return false
			}
		}
		w := want[k]
		if g.JobID != w.JobID ||
			math.Float64bits(g.AbsDeadline) != math.Float64bits(w.AbsDeadline) ||
			math.Float64bits(g.Finish) != math.Float64bits(w.Finish) ||
			math.Float64bits(g.Delay) != math.Float64bits(w.Delay) {
			return false
		}
	}
	return true
}

// TestVersionBumpsOnAllMutationPaths proves the state version counter
// fires on each of the three mutation paths — addSlice, advance, and
// retireCompleted — and stays put for read-only prediction calls.
func TestVersionBumpsOnAllMutationPaths(t *testing.T) {
	c := newTS(t, 1)
	e := sim.NewEngine()
	e.MaxEvents = 1_000_000
	n := c.Node(0)
	v0 := n.Version()

	// addSlice: submitting a job must bump the version. Job 1's deadline
	// (100) passes long before its 300s of work can complete, which sets
	// up the advance-only event below.
	if _, err := c.Submit(e, job(1, 0, 300, 100, 1), 300, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(e, job(2, 0, 300, 1000, 1), 300, []int{0}); err != nil {
		t.Fatal(err)
	}
	v1 := n.Version()
	if v1 == v0 {
		t.Fatal("version unchanged after addSlice")
	}

	// Predictions are read-only: no bump.
	n.PredictDelaysScratch(0, &Candidate{JobID: 9, RefWork: 10, AbsDeadline: 50})
	n.PredictDelaysScratch(0, nil)
	if got := n.Version(); got != v1 {
		t.Fatalf("version = %d after read-only predictions, want %d", got, v1)
	}

	// advance: the only node event in (0, 150] is job 1 crossing its
	// deadline at t=100 — a pure advance+recompute with no slice added
	// or retired.
	e.SetHorizon(150)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.NumSlices() != 2 {
		t.Fatalf("slices = %d at t=150, want 2", n.NumSlices())
	}
	v2 := n.Version()
	if v2 == v1 {
		t.Fatal("version unchanged after advance (deadline crossing at t=100)")
	}

	// retireCompleted: run to completion of both jobs.
	e.SetHorizon(math.Inf(1))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.NumSlices() != 0 {
		t.Fatalf("slices = %d, want 0", n.NumSlices())
	}
	if got := n.Version(); got == v2 {
		t.Fatal("version unchanged after retireCompleted")
	}
}

// TestPredictionStable pins down the stability contract the monitor's
// cache relies on.
func TestPredictionStable(t *testing.T) {
	c := newTS(t, 1)
	e := sim.NewEngine()
	n := c.Node(0)
	if !n.PredictionStable() {
		t.Fatal("empty node must be stable")
	}
	if _, err := c.Submit(e, job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if !n.PredictionStable() {
		t.Fatal("lone work-conserving slice must be stable")
	}
	// A single-slice prediction really is invariant in absolute time.
	p10 := append([]PredictedDelay{}, n.PredictDelaysScratch(10, nil)...)
	p60 := n.PredictDelaysScratch(60, nil)
	if len(p10) != 1 || len(p60) != 1 {
		t.Fatalf("predictions = %d/%d, want 1/1", len(p10), len(p60))
	}
	if math.Abs(p10[0].Finish-p60[0].Finish) > 1e-9 {
		t.Fatalf("single-slice finish moved: %v vs %v", p10[0].Finish, p60[0].Finish)
	}
	if _, err := c.Submit(e, job(2, 0, 100, 500, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if n.PredictionStable() {
		t.Fatal("two slices must not be stable")
	}

	// Strict shares: even a lone slice's prediction depends on when the
	// predictor looks, so it must not be stable.
	strict := DefaultConfig()
	strict.WorkConserving = false
	cs, err := NewTimeShared(1, 168, strict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Submit(sim.NewEngine(), job(1, 0, 100, 400, 1), 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if cs.Node(0).PredictionStable() {
		t.Fatal("strict-share slice must not be stable")
	}
}

// TestLibraShareWithLimitMatches proves the early-exit share accumulation
// agrees with LibraShareWith: exact equality whenever the node is
// suitable, and verdict agreement always.
func TestLibraShareWithLimitMatches(t *testing.T) {
	for _, sc := range predictorScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			n := buildScenario(t, sc)
			const limit = 1 + 1e-9
			work, absDL := 50.0, sc.now+200
			if sc.cand != nil {
				work, absDL = sc.cand.RefWork, sc.cand.AbsDeadline
			}
			full := n.LibraShareWith(sc.now, work, absDL)
			got, ok := n.LibraShareWithLimit(sc.now, work, absDL, limit)
			if wantOK := full <= limit; ok != wantOK {
				t.Fatalf("ok = %v, want %v (share %v)", ok, wantOK, full)
			}
			if ok && got != full {
				t.Fatalf("share = %v, want exactly %v", got, full)
			}
		})
	}
}
