package core

import (
	"fmt"
	"math"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// LibraRisk is the paper's contribution (Algorithm 1): Libra's
// proportional-share execution, but a node is suitable for a new job only
// if its risk of deadline delay σ (eq. 6) is zero after tentatively adding
// the job. The delays entering σ come from a fluid forward simulation of
// the node using everyone's *believed* remaining work, so jobs that have
// silently overrun an underestimate — invisible to Libra's share test —
// surface as predicted delays and poison the node's risk.
type LibraRisk struct {
	Cluster  *cluster.TimeShared
	Recorder *metrics.Recorder
	// Selection orders the zero-risk nodes a job is allocated to.
	// Algorithm 1 walks nodes in index order, so FirstFit is the default.
	Selection NodeSelection
	// SigmaThreshold relaxes the zero-risk test to σ ≤ threshold; the
	// default 0 is the paper's rule. Used by the ablation bench.
	SigmaThreshold float64
	// MeanRule switches the suitability test from σ = 0 (the paper's
	// Algorithm 1) to µ = 1, i.e. *no* predicted deadline delay at all.
	// σ = 0 additionally admits uniformly-delayed configurations — in
	// practice a lone over-estimated job on an empty node — so comparing
	// the two quantifies the value of that forgiveness (ablation).
	MeanRule bool
	// DisableFastPath turns off the admission fast paths (the empty-node
	// shortcut, the σ bound, the FirstFit early exit and the parallel
	// scan) so the differential tests can prove they are
	// behaviour-preserving.
	DisableFastPath bool

	// obsHooks carries the optional per-run tracer/metrics/audit
	// attachments (see SetObs); all nil by default.
	obsHooks

	// fits, ids and cand are reused across Submit calls so admission does
	// not allocate per arrival.
	fits []nodeFit
	ids  []int
	cand cluster.Candidate

	// pool, when attached (sharded runs), fans the admission node scan out
	// across the shard workers; see SetAdmitPool and admitpar.go.
	pool *sim.ShardPool
	par  admitScratch
	// parNow/parFirstFit stash the scan parameters and evalParH the
	// bound-once evaluator, so the fan-out allocates no closure per arrival.
	parNow      float64
	parFirstFit bool
	evalParH    func(i int) (nodeFit, bool)
}

// SetAdmitPool attaches (or with nil detaches) the worker pool the
// admission scan may fan out on. Implements AdmitParallel.
func (p *LibraRisk) SetAdmitPool(pool *sim.ShardPool) {
	p.pool = pool
	if pool != nil && p.evalParH == nil {
		p.evalParH = p.evalPar
	}
}

// evalPar is the parallel scan's per-node evaluator: the exact sequential
// walk body for one up node, against the parameters stashed by admit. It
// touches only the node's own scratch (see PredictDelaysWithin), so
// distinct nodes evaluate race-free in parallel.
func (p *LibraRisk) evalPar(i int) (nodeFit, bool) {
	n := p.Cluster.Node(i)
	if n.Down() {
		return nodeFit{}, false
	}
	_, sigma, suitable, _ := p.evalNode(p.parNow, n, &p.cand, false)
	if !suitable {
		return nodeFit{}, false
	}
	fit := nodeFit{id: i, sigma: sigma}
	if !p.parFirstFit {
		fit.share = n.LibraShareWith(p.parNow, p.cand.RefWork, p.cand.AbsDeadline)
	}
	return fit, true
}

// NewLibraRisk wires a LibraRisk policy to a time-shared cluster,
// including its failure-recovery hook: a job killed by a node crash is
// immediately resubmitted through Algorithm 1 with its remaining runtime
// and estimate but its original deadline, so the risk metric σ now prices
// node unavailability — the survivors absorbed the dead node's load and
// their predicted delays rise accordingly.
func NewLibraRisk(c *cluster.TimeShared, rec *metrics.Recorder) *LibraRisk {
	p := &LibraRisk{Cluster: c, Recorder: rec, Selection: FirstFit}
	c.OnJobDone = func(_ *sim.Engine, rj *cluster.RunningJob) {
		rec.Complete(rj.Job, rj.Finish, c.MinRuntime(rj))
	}
	c.OnJobKilled = func(e *sim.Engine, kj cluster.KilledJob) {
		rec.Killed(kj.Job.Job)
		job := kj.Job.Job
		job.Runtime = kj.RemainingRuntime
		p.admit(e, job, kj.RemainingEstimate, true)
	}
	return p
}

// Name implements Policy.
func (p *LibraRisk) Name() string { return "LibraRisk" }

// Reset prepares the policy for a fresh run on a reset cluster. LibraRisk
// keeps no cross-arrival state beyond its scratch buffers, so this only
// exists to satisfy the resettable-policy contract.
func (p *LibraRisk) Reset() {}

// NodeRisk evaluates one node: the deadline-delay values of all its jobs
// plus the candidate (Algorithm 1 lines 2-7), their mean µ and risk σ.
// The σ here is numerically identical to RiskOfDelay over the same values
// (Welford's single-pass population form), without materializing a fresh
// []PredictedDelay: the fluid predictions stream out of the node's
// reusable scratch buffer straight into the accumulator, in the same
// ascending-JobID order the allocating path uses.
func (p *LibraRisk) NodeRisk(now float64, n *cluster.PSNode, cand *cluster.Candidate) (mu, sigma float64) {
	mu, sigma, _ = nodeRiskWithin(now, n, cand, math.Inf(1))
	return mu, sigma
}

// nodeRiskWithin is NodeRisk on PredictDelaysWithin: ok is false when the
// predictor stopped early because its verdicts already proved σ > limit,
// and µ/σ are then not computed. A node that completes streams the same
// verdicts through the same accumulator, so its µ and σ are NodeRisk's to
// the bit.
func nodeRiskWithin(now float64, n *cluster.PSNode, cand *cluster.Candidate, limit float64) (mu, sigma float64, ok bool) {
	preds, ok := n.PredictDelaysWithin(now, cand, limit)
	if !ok {
		return 0, 0, false
	}
	var w sim.Welford
	for _, pr := range preds {
		w.Add(cluster.DeadlineDelay(pr.Delay, pr.AbsDeadline-now))
	}
	return w.Mean(), w.StdDevPop(), true
}

// evalNode applies Algorithm 1's suitability test to one node, returning
// whether it is suitable and, when computed is true, the node's µ/σ.
//
// Two fast paths skip work without changing the decision; both apply only
// under the σ rule with fast paths enabled, and neither when forceRisk
// (audit mode) wants the real µ/σ. The σ bound is also off while
// per-decision sim metrics observe every computed σ:
//
//   - An empty node is always suitable without running the fluid
//     simulation: the prediction set is the candidate alone, a single
//     observation, whose population standard deviation is exactly 0 ≤ any
//     non-negative threshold. (The µ rule depends on the candidate's own
//     predicted delay, so it always runs the simulation.)
//   - The σ bound: the simulation stops as soon as its verdicts prove
//     σ > SigmaThreshold + sigmaTolerance (see
//     cluster.PSNode.PredictDelaysWithin), and the node is unsuitable.
func (p *LibraRisk) evalNode(now float64, n *cluster.PSNode, cand *cluster.Candidate, forceRisk bool) (mu, sigma float64, suitable, computed bool) {
	limit := p.SigmaThreshold + sigmaTolerance
	fast := !forceRisk && !p.DisableFastPath && !p.MeanRule
	if fast && n.NumSlices() == 0 {
		return 0, 0, true, false
	}
	stop := math.Inf(1)
	if fast && p.Sim == nil {
		stop = limit
	}
	mu, sigma, ok := nodeRiskWithin(now, n, cand, stop)
	if !ok {
		return 0, 0, false, false
	}
	if p.MeanRule {
		return mu, sigma, mu <= 1+sigmaTolerance, true
	}
	return mu, sigma, sigma <= limit, true
}

// reject records a rejection in both the metrics recorder and the
// observability hooks, keeping the audit decision count exactly equal to
// the recorded rejection count.
func (p *LibraRisk) reject(now float64, job workload.Job, reason string) {
	p.Recorder.Reject(job, reason)
	p.rejectObs(now, job, reason)
}

// Submit implements Policy: Algorithm 1.
//
// The node walk carries these fast paths, all behaviour-preserving (the
// differential test in internal/experiment runs paper-scale simulations
// with and without them and asserts identical per-job decisions):
//
//   - Empty nodes are suitable without a fluid simulation (see evalNode).
//   - The σ bound: a node's simulation stops once its verdicts prove σ
//     above the threshold, and the node is unsuitable (see evalNode).
//   - FirstFit early exit: Algorithm 1 walks nodes in index order and
//     FirstFit takes the first NumProc zero-risk nodes, so once that many
//     are found the remaining nodes cannot change the outcome and the
//     scan stops. Rejections still scan every node, keeping the recorded
//     rejection reason identical.
//   - Post-acceptance shares are only computed when the selection rule
//     (BestFit/WorstFit) actually orders by them.
//   - With a shard pool attached, the node walk fans out across it (see
//     admitpar.go).
func (p *LibraRisk) Submit(e *sim.Engine, job workload.Job, estimate float64) {
	p.Recorder.Submitted(job)
	p.arriveObs(e.Now(), job)
	p.admit(e, job, estimate, false)
}

// admit runs Algorithm 1 without registering a new submission — shared by
// Submit and the crash-resubmission hook (resubmit marks the latter in
// the audit log).
func (p *LibraRisk) admit(e *sim.Engine, job workload.Job, estimate float64, resubmit bool) {
	now := e.Now()
	p.beginObs(now, job, estimate, resubmit)
	if job.NumProc > p.Cluster.Len() {
		p.reject(now, job, fmt.Sprintf("needs %d processors, cluster has %d", job.NumProc, p.Cluster.Len()))
		return
	}
	p.cand = cluster.Candidate{JobID: job.ID, RefWork: estimate, AbsDeadline: job.AbsDeadline()}
	cand := &p.cand
	firstFit := p.Selection == FirstFit
	auditing := p.auditing()
	zeroRisk := p.fits[:0]
	// Fan the node walk out across the shard pool when attached, unless
	// admission has order-sensitive observers (auditing, per-decision sim
	// metrics) or fast paths are disabled — the parallel scan is itself a
	// behaviour-preserving fast path. Under FirstFit a sequential prefix
	// runs first so a shallow accept never pays the fan-out.
	parFrom := p.Cluster.Len()
	if p.pool != nil && !auditing && p.Sim == nil && !p.DisableFastPath &&
		p.Cluster.Len() >= admitParMinNodes {
		parFrom = 0
		if firstFit {
			parFrom = admitParPrefix
		}
	}
	for i := 0; i < parFrom; i++ {
		n := p.Cluster.Node(i)
		if n.Down() {
			if auditing {
				p.Audit.Node(obs.NodeEval{Node: i, Down: true})
			}
			continue
		}
		mu, sigma, suitable, computed := p.evalNode(now, n, cand, auditing)
		if computed && p.Sim != nil {
			p.Sim.RiskSigma.Observe(sigma)
		}
		if auditing {
			p.Audit.Node(obs.NodeEval{Node: i, Sigma: sigma, Mu: mu, Suitable: suitable})
		}
		if !suitable {
			continue
		}
		fit := nodeFit{id: i, sigma: sigma}
		if !firstFit || p.DisableFastPath {
			// Record the post-acceptance share so BestFit/WorstFit
			// selections have the same notion of fit Libra uses.
			fit.share = n.LibraShareWith(now, estimate, cand.AbsDeadline)
		}
		zeroRisk = append(zeroRisk, fit)
		if firstFit && !p.DisableFastPath && len(zeroRisk) == job.NumProc {
			break
		}
	}
	if parFrom < p.Cluster.Len() && !(firstFit && len(zeroRisk) >= job.NumProc) {
		// Decision-identical to continuing the walk: evaluations are pure,
		// results merge in node-index order, and the first NumProc entries
		// (all FirstFit uses) are exactly the ones the sequential early
		// exit would have stopped at. A rejection evaluates every node on
		// both paths, so rejection reasons and counts match too.
		p.parNow, p.parFirstFit = now, firstFit
		zeroRisk = parallelScan(p.pool, &p.par, parFrom, p.Cluster.Len(), zeroRisk, p.evalParH)
	}
	p.fits = zeroRisk
	if len(zeroRisk) < job.NumProc {
		p.reject(now, job, fmt.Sprintf("only %d of %d required nodes have zero risk", len(zeroRisk), job.NumProc))
		return
	}
	orderBySelection(zeroRisk, p.Selection)
	if cap(p.ids) < job.NumProc {
		p.ids = make([]int, job.NumProc)
	}
	ids := p.ids[:job.NumProc]
	maxSigma := 0.0
	for i := range ids {
		ids[i] = zeroRisk[i].id
		if zeroRisk[i].sigma > maxSigma {
			maxSigma = zeroRisk[i].sigma
		}
	}
	if _, err := p.Cluster.Submit(e, job, estimate, ids); err != nil {
		p.reject(now, job, "placement failed: "+err.Error())
		return
	}
	p.acceptObs(now, job, ids, maxSigma)
}
