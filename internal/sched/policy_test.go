package sched

import (
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
)

// TestNewPolicy checks every name builds on the right cluster kind, the
// parameters reach the policy (empty selection keeping each default, slack
// 0 staying 0), and unknown names are errors.
func TestNewPolicy(t *testing.T) {
	build := func(name string, params PolicyParams) (core.Policy, *cluster.TimeShared, *cluster.SpaceShared, error) {
		return NewPolicy(name, params, []float64{168, 168}, cluster.DefaultConfig(), metrics.NewRecorder())
	}
	for _, name := range []string{"edf", "libra", "librarisk", "fcfs", "backfill-easy", "backfill-conservative", "backfill-edf", "qops"} {
		pol, ts, ss, err := build(name, PolicyParams{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		timeShared := name == "libra" || name == "librarisk"
		if pol == nil || (ts != nil) != timeShared || (ss != nil) == timeShared {
			t.Errorf("%s: policy %v, time-shared %v, space-shared %v", name, pol, ts != nil, ss != nil)
		}
	}

	pol, _, _, _ := build("libra", PolicyParams{})
	if sel := pol.(*core.Libra).Selection; sel != core.BestFit {
		t.Errorf("libra default selection = %v, want best-fit", sel)
	}
	pol, _, _, _ = build("librarisk", PolicyParams{})
	if sel := pol.(*core.LibraRisk).Selection; sel != core.FirstFit {
		t.Errorf("librarisk default selection = %v, want first-fit", sel)
	}
	pol, _, _, _ = build("librarisk", PolicyParams{Selection: "worst-fit", SigmaThreshold: 0.5})
	if p := pol.(*core.LibraRisk); p.Selection != core.WorstFit || p.SigmaThreshold != 0.5 {
		t.Errorf("librarisk params not applied: selection %v, σ %g", p.Selection, p.SigmaThreshold)
	}
	pol, _, _, _ = build("qops", PolicyParams{})
	if slack := pol.(*QoPS).SlackFactor; slack != 0 {
		t.Errorf("qops slack = %g, want 0", slack)
	}
	pol, _, _, _ = build("backfill-edf", PolicyParams{})
	if !pol.(*Backfill).DeadlineOrdered {
		t.Error("backfill-edf is not deadline ordered")
	}

	if _, _, _, err := build("nope", PolicyParams{}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, _, _, err := build("libra", PolicyParams{Selection: "zigzag"}); err == nil {
		t.Error("unknown node selection accepted")
	}
}
