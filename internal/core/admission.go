package core

import (
	"fmt"
	"slices"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// shareAdmission is the time-shared admission walk Libra and LibraRisk
// share. Algorithm 1 is Libra's walk with a different per-node test: visit
// the up nodes in index order, keep those the test passes, reject unless
// NumProc passed, otherwise order them by the selection rule and start the
// job on the first NumProc. Each policy embeds it and supplies only its
// test, its rejection format and its default Selection (see wire).
type shareAdmission struct {
	Cluster  *cluster.TimeShared
	Recorder *metrics.Recorder
	// Selection orders the suitable nodes a job is allocated to.
	Selection NodeSelection
	// DisableFastPath turns off the behaviour-preserving fast paths (the
	// FirstFit early exit and each test's own) so the differential tests
	// can prove they change no decision.
	DisableFastPath bool

	// obsHooks carries the optional per-run tracer/metrics/audit
	// attachments (see SetObs); all nil by default.
	obsHooks

	// test is the policy's suitability test for one up node: its fit and
	// whether it passes. It emits the node's audit NodeEval and sim-metrics
	// observation, and reads the arrival from now and cand.
	test func(i int, n *cluster.PSNode) (nodeFit, bool)
	// tooFew is the policy's rejection format for too few suitable nodes,
	// one constant per policy: a noun passed as a %s argument would box a
	// string, one allocation per rejection.
	tooFew string

	// fits, ids and cand are reused across arrivals so admission does not
	// allocate; now and cand describe the arrival under test.
	fits []nodeFit
	ids  []int
	now  float64
	cand cluster.Candidate
}

// nodeFit is one suitable node: share, the total share it would carry
// after accepting the candidate, orders the nodes; value is the policy's
// acceptance measure, whose maximum over the chosen nodes the accept
// emission reports (share for Libra, σ for LibraRisk).
type nodeFit struct {
	id    int
	share float64
	value float64
}

// wire initializes the walk for one policy and installs the cluster's
// completion and failure-recovery hooks: a job killed by a node crash is
// immediately resubmitted through the admission test with its remaining
// runtime and estimate but its original deadline. The crashed node is
// already down, so the test prices the lost capacity.
func (a *shareAdmission) wire(c *cluster.TimeShared, rec *metrics.Recorder, sel NodeSelection, test func(int, *cluster.PSNode) (nodeFit, bool), tooFew string) {
	*a = shareAdmission{Cluster: c, Recorder: rec, Selection: sel, test: test, tooFew: tooFew}
	c.OnJobDone = func(_ *sim.Engine, rj *cluster.RunningJob) {
		rec.Complete(rj.Job, rj.Finish, c.MinRuntime(rj))
	}
	c.OnJobKilled = func(e *sim.Engine, kj cluster.KilledJob) {
		rec.Killed(kj.Job.Job)
		job := kj.Job.Job
		job.Runtime = kj.RemainingRuntime
		// Resubmission, not a new submission: the job is still pending in
		// the recorder and must end with exactly one final outcome.
		a.admit(e, job, kj.RemainingEstimate, true)
	}
}

// Reset prepares the policy for a fresh run on a reset cluster. The walk
// keeps no cross-arrival state beyond its scratch buffers, so this only
// exists to satisfy the resettable-policy contract.
func (a *shareAdmission) Reset() {}

// eval is the walk body for node i: a down node is unsuitable (and
// audited as down), an up one goes to the policy's test.
func (a *shareAdmission) eval(i int) (nodeFit, bool) {
	n := a.Cluster.Node(i)
	if n.Down() {
		if a.auditing() {
			a.Audit.Node(obs.NodeEval{Node: i, Down: true})
		}
		return nodeFit{}, false
	}
	return a.test(i, n)
}

// Submit implements Policy: the admission test and placement.
//
// On top of each policy's own test fast paths the walk carries one
// behaviour-preserving fast path (the differential test in
// internal/experiment runs paper-scale simulations with and without it
// and asserts identical per-job decisions): the FirstFit early exit. The
// walk is in node-index order and FirstFit takes the first NumProc
// suitable nodes, so once that many are found the remaining nodes cannot
// change the outcome and the walk stops. Rejections still visit every
// node, keeping the recorded rejection reason identical.
func (a *shareAdmission) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	a.Recorder.Submitted(job)
	a.arriveObs(e.Now(), job)
	return a.admit(e, job, estimate, false)
}

// reject records a rejection in both the metrics recorder and the
// observability hooks, keeping the audit decision count exactly equal to
// the recorded rejection count, and returns it as Submit's decision.
func (a *shareAdmission) reject(now float64, job workload.Job, reason string) (bool, string) {
	a.Recorder.Reject(job, reason)
	a.rejectObs(now, job, reason)
	return false, reason
}

// admit runs the admission test and placement without registering a new
// submission — shared by Submit and the crash-resubmission hook (resubmit
// marks the latter in the audit log).
func (a *shareAdmission) admit(e *sim.Engine, job workload.Job, estimate float64, resubmit bool) (bool, string) {
	now := e.Now()
	a.beginObs(now, job, estimate, resubmit)
	nodes := a.Cluster.Len()
	if job.NumProc > nodes {
		return a.reject(now, job, fmt.Sprintf("needs %d processors, cluster has %d", job.NumProc, nodes))
	}
	a.now = now
	a.cand = cluster.Candidate{JobID: job.ID, RefWork: estimate, AbsDeadline: job.AbsDeadline()}
	firstFit := a.Selection == FirstFit && !a.DisableFastPath
	fits := a.fits[:0]
	for i := 0; i < nodes; i++ {
		if fit, ok := a.eval(i); ok {
			fits = append(fits, fit)
			if firstFit && len(fits) == job.NumProc {
				break
			}
		}
	}
	a.fits = fits
	if len(fits) < job.NumProc {
		return a.reject(now, job, fmt.Sprintf(a.tooFew, len(fits), job.NumProc))
	}
	orderBySelection(fits, a.Selection)
	if cap(a.ids) < job.NumProc {
		a.ids = make([]int, job.NumProc)
	}
	ids := a.ids[:job.NumProc]
	maxValue := 0.0
	for i := range ids {
		ids[i] = fits[i].id
		if fits[i].value > maxValue {
			maxValue = fits[i].value
		}
	}
	if _, err := a.Cluster.Submit(e, job, estimate, ids); err != nil {
		// Unreachable with a correct admission test; surface as rejection
		// rather than corrupt the metrics.
		return a.reject(now, job, "placement failed: "+err.Error())
	}
	a.acceptObs(now, job, ids, maxValue)
	return true, ""
}

// orderBySelection sorts candidate nodes per the fit strategy; ties break
// on node id for determinism. FirstFit keeps the walk's order, which is
// ascending node id.
// slices.SortFunc rather than sort.Slice: the comparators are total orders
// so the results are identical, and SortFunc avoids sort.Slice's
// reflection-based swapper allocation on a per-arrival path.
func orderBySelection(fits []nodeFit, sel NodeSelection) {
	switch sel {
	case BestFit:
		slices.SortFunc(fits, func(a, b nodeFit) int {
			if a.share != b.share {
				if a.share > b.share {
					return -1
				}
				return 1
			}
			return a.id - b.id
		})
	case WorstFit:
		slices.SortFunc(fits, func(a, b nodeFit) int {
			if a.share != b.share {
				if a.share < b.share {
					return -1
				}
				return 1
			}
			return a.id - b.id
		})
	}
}
