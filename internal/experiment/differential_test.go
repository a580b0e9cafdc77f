package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// TestFastPathsMatchReferenceAtPaperScale is the tentpole differential
// test: full paper-scale simulations (128 nodes, 3000 jobs, trace
// estimates) with every admission fast path enabled must produce
// byte-identical summaries to the reference configuration — no FirstFit
// early exit, no share early-abort, no σ bound, no baseline caching. The
// fluid predictor itself is held to its naive reference on the same
// paper-scale stream by internal/cluster's
// TestPredictorMatchesNaiveOnPaperStream. metrics.Summary is all
// scalar fields, so plain == is an exact comparison of every headline
// number the paper reports; the per-job decision digest (outcome, nodes,
// finish time, reason of every job) then shows no two decisions were
// merely traded against each other. The LibraRisk variants with a positive
// σ threshold and BestFit selection cover the σ bound at a non-trivial
// limit and the share-ordered selection path.
func TestFastPathsMatchReferenceAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential sims in -short mode")
	}
	base := DefaultBase()
	// Ride the invariant checker along: every paper-scale run below
	// re-validates job conservation and cluster structure after each
	// event, and any violation fails the run.
	// (TestZeroFaultRateIsExactlyNoFault separately proves the checker
	// changes no result.)
	base.CheckInvariants = true
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	riskWith := func(f func(*core.LibraRisk)) func(core.Policy) {
		return func(p core.Policy) { f(p.(*core.LibraRisk)) }
	}
	for _, tc := range []struct {
		name  string
		kind  PolicyKind
		tweak func(core.Policy)
	}{
		{name: EDF.String(), kind: EDF},
		{name: Libra.String(), kind: Libra},
		{name: LibraRisk.String(), kind: LibraRisk},
		{name: "LibraRiskSigma0.05", kind: LibraRisk,
			tweak: riskWith(func(p *core.LibraRisk) { p.SigmaThreshold = 0.05 })},
		{name: "LibraRiskBestFit", kind: LibraRisk,
			tweak: riskWith(func(p *core.LibraRisk) { p.Selection = core.BestFit })},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, inacc := range []float64{0, 100} {
				spec := RunSpec{
					Policy:        tc.kind,
					InaccuracyPct: inacc,
					Deadline:      base.Deadline,
				}
				ref := base
				ref.disableFastPaths = true
				fastSum, fastDigest := decisionRun(t, base, jobs, spec, tc.tweak)
				slowSum, slowDigest := decisionRun(t, ref, jobs, spec, tc.tweak)
				if fastSum != slowSum {
					t.Errorf("inaccuracy %g%%: summaries diverge\nfast %+v\nref  %+v", inacc, fastSum, slowSum)
				}
				if fastDigest != slowDigest {
					t.Errorf("inaccuracy %g%%: per-job decision digests diverge (%d of %d jobs rejected on the fast path)",
						inacc, fastSum.Rejected, fastSum.Submitted)
				}
			}
		})
	}
}

// decisionRun runs spec on a fresh run scratch whose policy tweak (if any)
// configures first, and returns the summary with a SHA-256 digest of every
// job's outcome, nodes, finish time and rejection reason in JobID order.
func decisionRun(t *testing.T, base BaseConfig, jobs []workload.Job, spec RunSpec, tweak func(core.Policy)) (metrics.Summary, [sha256.Size]byte) {
	t.Helper()
	sc := newRunScratch()
	pol, ts, ss, err := buildPolicyClusters(base, spec.Policy, sc.rec)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(pol)
	}
	nodes := make(map[int][]int)
	record := func(done func(*sim.Engine, *cluster.RunningJob)) func(*sim.Engine, *cluster.RunningJob) {
		return func(e *sim.Engine, rj *cluster.RunningJob) {
			nodes[rj.Job.ID] = append([]int(nil), rj.NodeIDs...)
			done(e, rj)
		}
	}
	if ts != nil {
		ts.OnJobDone = record(ts.OnJobDone)
	} else {
		ss.OnJobDone = record(ss.OnJobDone)
	}
	sc.ctxs[spec.Policy] = &policyContext{pol: pol, ts: ts, ss: ss}
	sum, _, err := runInstrumented(context.Background(), base, jobs, spec, sc, -1)
	if err != nil {
		t.Fatal(err)
	}
	results := append([]metrics.JobResult(nil), sc.rec.Results()...)
	sort.Slice(results, func(i, j int) bool { return results[i].JobID < results[j].JobID })
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%d %v %v %x %q\n", r.JobID, r.Outcome, nodes[r.JobID], math.Float64bits(r.Finish), r.Reason)
	}
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	return sum, digest
}
