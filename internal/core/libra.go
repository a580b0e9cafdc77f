package core

import (
	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
)

// Libra is the deadline-based proportional processor share strategy with
// job admission control (Sherwani et al.): a new job is accepted only if
// every allocated node retains total share ≤ 1 including the new job
// (eqs. 1-2), and nodes are chosen best-fit so they saturate to their
// maximum. Accepted jobs start immediately at their allocated share.
type Libra struct {
	// shareAdmission is the admission walk; Libra supplies its share test.
	// Selection defaults to BestFit, the paper's Libra behaviour.
	shareAdmission
}

// libraLimit is the admission share ceiling with its float tolerance.
const libraLimit = 1 + 1e-9

// NewLibra wires a Libra policy to a time-shared cluster, including its
// completion and crash-resubmission hooks.
func NewLibra(c *cluster.TimeShared, rec *metrics.Recorder) *Libra {
	p := &Libra{}
	p.wire(c, rec, BestFit, p.test, "only %d of %d required nodes can hold the share")
	return p
}

// Name implements Policy.
func (p *Libra) Name() string { return "Libra" }

// test is Libra's per-node test: the node's total share with the
// candidate must stay within the limit. Unless audit or DisableFastPath
// wants the full sum, the accumulation aborts as soon as the running
// total exceeds the limit — the terms are non-negative, so the node is
// already unsuitable.
func (p *Libra) test(i int, n *cluster.PSNode) (nodeFit, bool) {
	var s float64
	var ok bool
	if p.DisableFastPath || p.auditing() {
		// Audit mode computes the full share even past the limit so the
		// log shows the real number; the decision (s ≤ limit) is
		// identical to the early-abort fast path's.
		s = n.LibraShareWith(p.now, p.cand.RefWork, p.cand.AbsDeadline)
		ok = s <= libraLimit
	} else {
		s, ok = n.LibraShareWithLimit(p.now, p.cand.RefWork, p.cand.AbsDeadline, libraLimit)
	}
	if p.auditing() {
		p.Audit.Node(obs.NodeEval{Node: i, Share: obs.JSONFloat(s), Suitable: ok})
	}
	if ok && p.Sim != nil {
		p.Sim.AdmitShare.Observe(s)
	}
	return nodeFit{id: i, share: s, value: s}, ok
}
