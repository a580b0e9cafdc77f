package core

import (
	"math"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/sim"
)

// LibraRisk is the paper's contribution (Algorithm 1): Libra's
// proportional-share execution, but a node is suitable for a new job only
// if its risk of deadline delay σ (eq. 6) is zero after tentatively adding
// the job. The delays entering σ come from a fluid forward simulation of
// the node using everyone's *believed* remaining work, so jobs that have
// silently overrun an underestimate — invisible to Libra's share test —
// surface as predicted delays and poison the node's risk.
type LibraRisk struct {
	// shareAdmission is the admission walk; LibraRisk supplies its risk
	// test. Algorithm 1 walks nodes in index order, so Selection defaults
	// to FirstFit.
	shareAdmission
	// SigmaThreshold relaxes the zero-risk test to σ ≤ threshold; the
	// default 0 is the paper's rule. Used by the ablation bench.
	SigmaThreshold float64
	// MeanRule switches the suitability test from σ = 0 (the paper's
	// Algorithm 1) to µ = 1, i.e. *no* predicted deadline delay at all.
	// σ = 0 additionally admits uniformly-delayed configurations — in
	// practice a lone over-estimated job on an empty node — so comparing
	// the two quantifies the value of that forgiveness (ablation).
	MeanRule bool
}

// NewLibraRisk wires a LibraRisk policy to a time-shared cluster,
// including its completion and crash-resubmission hooks: a job killed by a
// node crash goes back through Algorithm 1, so the risk metric σ now
// prices node unavailability — the survivors absorbed the dead node's load
// and their predicted delays rise accordingly.
func NewLibraRisk(c *cluster.TimeShared, rec *metrics.Recorder) *LibraRisk {
	p := &LibraRisk{}
	p.wire(c, rec, FirstFit, p.test, "only %d of %d required nodes have zero risk")
	return p
}

// Name implements Policy.
func (p *LibraRisk) Name() string { return "LibraRisk" }

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
// Five fast paths skip work without changing the decision; all apply only
// under the σ rule with fast paths enabled, and none when forceRisk
// (audit mode) wants the real µ/σ. The last four are also off while
// per-decision sim metrics observe every computed σ:
//
//   - An empty node is always suitable without running the fluid
//     simulation: the prediction set is the candidate alone, a single
//     observation, whose population standard deviation is exactly 0 ≤ any
//     non-negative threshold. (The µ rule depends on the candidate's own
//     predicted delay, so it always runs the simulation.)
//   - O(1) floors: cluster.PSNode.ProvablyRisky proves
//     σ > SigmaThreshold + sigmaTolerance from the node's version-keyed
//     summary (an overdue exhausted slice, a doomed resident, the
//     candidate's earliest finish, or an overloaded node's first deadline
//     crossing), and the node is unsuitable without a simulation.
//   - The early accept: cluster.PSNode.ProvablySafe proves every item
//     would finish by its deadline, because the Libra weights b/r of the
//     node's items and the candidate sum to less than the node's speed
//     (Libra's own share test, with a margin), so every value is 1: µ = 1
//     and σ = 0, and the node is suitable without a simulation. Strict
//     shares never prove it.
//   - The σ bound: the simulation stops as soon as its verdicts prove
//     σ > SigmaThreshold + sigmaTolerance (see
//     cluster.PSNode.PredictDelaysWithin), and the node is unsuitable.
//   - Earliest finishes, inside the same bounded simulation: no item
//     retires before its believed work could be served at the node's full
//     speed, which bounds the largest value from below before the first
//     step and at every deadline crossing, and the backlog horizon bounds
//     the smallest from above; the simulation stops as soon as those
//     bounds prove the same σ. Under strict shares only the first half
//     applies.
func (p *LibraRisk) evalNode(now float64, n *cluster.PSNode, cand *cluster.Candidate, forceRisk bool) (mu, sigma float64, suitable, computed bool) {
	limit := p.SigmaThreshold + sigmaTolerance
	fast := !forceRisk && !p.DisableFastPath && !p.MeanRule
	if fast && n.NumSlices() == 0 {
		return 0, 0, true, false
	}
	stop := math.Inf(1)
	if fast && p.Sim == nil {
		if n.ProvablyRisky(now, cand, limit) {
			return 0, 0, false, false
		}
		if n.ProvablySafe(now, cand) {
			return 1, 0, true, true
		}
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

// test is Algorithm 1's per-node test (see evalNode for its fast paths).
// Post-acceptance shares are only computed when the selection rule
// (BestFit/WorstFit) orders by them, so they have the same notion of fit
// Libra uses.
func (p *LibraRisk) test(i int, n *cluster.PSNode) (nodeFit, bool) {
	mu, sigma, suitable, computed := p.evalNode(p.now, n, &p.cand, p.auditing())
	if computed && p.Sim != nil {
		p.Sim.RiskSigma.Observe(sigma)
	}
	if p.auditing() {
		p.Audit.Node(obs.NodeEval{Node: i, Sigma: sigma, Mu: mu, Suitable: suitable})
	}
	if !suitable {
		return nodeFit{}, false
	}
	fit := nodeFit{id: i, value: sigma}
	if p.Selection != FirstFit || p.DisableFastPath {
		fit.share = n.LibraShareWith(p.now, p.cand.RefWork, p.cand.AbsDeadline)
	}
	return fit, true
}
