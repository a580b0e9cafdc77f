package sched

import (
	"fmt"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
)

// PolicyParams are the per-policy knobs NewPolicy applies. Each applies
// only to the policies named in its comment.
type PolicyParams struct {
	// Selection orders suitable nodes for libra and librarisk: "best-fit",
	// "first-fit" or "worst-fit". Empty keeps each policy's own default.
	Selection string
	// SigmaThreshold relaxes librarisk's zero-risk rule to σ ≤ threshold.
	SigmaThreshold float64
	// QoPSSlack is how many estimated runtimes a qops-admitted job's
	// deadline may slip; 0 means hard deadlines.
	QoPSSlack float64
}

var selections = map[string]core.NodeSelection{
	"best-fit":  core.BestFit,
	"first-fit": core.FirstFit,
	"worst-fit": core.WorstFit,
}

// NewPolicy builds the named admission policy on a fresh cluster of the
// given per-node ratings: libra and librarisk on a time-shared cluster;
// edf, fcfs, backfill-easy, backfill-conservative, backfill-edf and qops
// on a space-shared one. Exactly one of the returned clusters is non-nil
// on success.
func NewPolicy(name string, params PolicyParams, ratings []float64, ccfg cluster.Config, rec *metrics.Recorder) (core.Policy, *cluster.TimeShared, *cluster.SpaceShared, error) {
	sel, ok := selections[params.Selection]
	if !ok && params.Selection != "" {
		return nil, nil, nil, fmt.Errorf("sched: unknown node selection %q", params.Selection)
	}
	var (
		ts  *cluster.TimeShared
		ss  *cluster.SpaceShared
		err error
	)
	if name == "libra" || name == "librarisk" {
		ts, err = cluster.NewTimeSharedHetero(ratings, ccfg)
	} else {
		ss, err = cluster.NewSpaceSharedHetero(ratings, ccfg)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	var pol core.Policy
	switch name {
	case "edf":
		pol = core.NewEDF(ss, rec)
	case "libra":
		p := core.NewLibra(ts, rec)
		if ok {
			p.Selection = sel
		}
		pol = p
	case "librarisk":
		p := core.NewLibraRisk(ts, rec)
		p.SigmaThreshold = params.SigmaThreshold
		if ok {
			p.Selection = sel
		}
		pol = p
	case "fcfs":
		pol = NewFCFS(ss, rec)
	case "backfill-easy":
		pol = NewBackfill(ss, rec, EASYBackfill)
	case "backfill-conservative":
		pol = NewBackfill(ss, rec, ConservativeBackfill)
	case "backfill-edf":
		p := NewBackfill(ss, rec, EASYBackfill)
		p.DeadlineOrdered = true
		pol = p
	case "qops":
		pol = NewQoPS(ss, rec, params.QoPSSlack)
	default:
		return nil, nil, nil, fmt.Errorf("sched: unknown policy %q", name)
	}
	return pol, ts, ss, nil
}
