package experiment

import (
	"context"
	"reflect"
	"testing"

	"clustersched/internal/fault"
)

// TestZeroFaultRateIsExactlyNoFault is an acceptance criterion for the
// fault subsystem: a zero fault.Config (what ChaosFaultConfig returns for
// rate 0) plus the invariant checker must reproduce the plain no-fault
// summary byte-for-byte, for every policy. The fault layer is provably a
// no-op when disabled.
func TestZeroFaultRateIsExactlyNoFault(t *testing.T) {
	base := testBase()
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range AllPolicies {
		spec := RunSpec{Policy: pol, InaccuracyPct: 100, Deadline: base.Deadline}
		baseline, err := Run(base, jobs, spec)
		if err != nil {
			t.Fatalf("%v baseline: %v", pol, err)
		}
		spec.Faults = ChaosFaultConfig(0, 1) // rate 0 → zero Config
		checked := base
		checked.CheckInvariants = true
		got, err := Run(checked, jobs, spec)
		if err != nil {
			t.Fatalf("%v checked: %v", pol, err)
		}
		if got != baseline {
			t.Errorf("%v: zero-fault run diverges from baseline\nwith    %+v\nwithout %+v", pol, got, baseline)
		}
	}
}

// TestChaosSweepDeterministic runs the chaos grid twice at reduced scale:
// identical seeds must give byte-identical points (summaries, kill counts,
// mean σ).
func TestChaosSweepDeterministic(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 200
	base.CheckInvariants = true
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	a := ChaosSweepContext(context.Background(), base, jobs)
	b := ChaosSweepContext(context.Background(), base, jobs)
	for i := range a {
		if a[i].Err != nil {
			t.Fatalf("point %d (%v rate=%g): %v", i, a[i].Policy, a[i].FailuresPerDay, a[i].Err)
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("point %d not deterministic:\nrun1 %+v\nrun2 %+v", i, a[i], b[i])
		}
	}
}

// TestChaosSweepFaultsBite sanity-checks the sweep's physics: at the
// highest failure rate some jobs must actually get killed by crashes, and
// the summaries still conserve jobs (the checker ran, so a run error would
// have surfaced any leak).
func TestChaosSweepFaultsBite(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 200
	base.CheckInvariants = true
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	points := ChaosSweepContext(context.Background(), base, jobs)
	kills := 0
	for _, pt := range points {
		if pt.Err != nil {
			t.Fatalf("%v rate=%g: %v", pt.Policy, pt.FailuresPerDay, pt.Err)
		}
		if pt.FailuresPerDay == 0 && pt.Summary.Killed != 0 {
			t.Errorf("%v: killed %d jobs at fault rate 0", pt.Policy, pt.Summary.Killed)
		}
		if pt.FailuresPerDay == ChaosFailuresPerDay[len(ChaosFailuresPerDay)-1] {
			kills += pt.Summary.Killed
		}
	}
	if kills == 0 {
		t.Error("no job killed at the highest failure rate across all policies")
	}
}

// TestAllFiguresUnchangedByInvariantChecker replays the full paper figure
// set (reduced scale) with the invariant checker armed and zero faults:
// every panel must be byte-identical to the unchecked baseline, proving
// the new machinery is inert when not exercised.
func TestAllFiguresUnchangedByInvariantChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid in -short mode")
	}
	base := testBase()
	base.Generator.Jobs = 150
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := allFiguresFrom(base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	checked := base
	checked.CheckInvariants = true
	got, err := allFiguresFrom(checked, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Fatal("figures diverge with the invariant checker armed")
	}
}

// TestRunInstrumentedRejectsFaultsForUnsupportedPolicy pins the error
// contract: policies without recovery semantics cannot run under fault
// injection.
func TestRunInstrumentedRejectsFaultsForUnsupportedPolicy(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 50
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Policy:        FCFS,
		InaccuracyPct: 0,
		Deadline:      base.Deadline,
		Faults:        fault.Config{MTBF: 1000, MTTR: 100},
	}
	if _, err := Run(base, jobs, spec); err == nil {
		t.Fatal("fault injection accepted for FCFS")
	}
}

// TestFigureChaosShape builds the chaos figure at small scale and checks
// its panel geometry.
func TestFigureChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos grid in -short mode")
	}
	base := testBase()
	base.Generator.Jobs = 150
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := FigureChaosFromContext(context.Background(), base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "chaos" || len(fig.Panels) != 3 {
		t.Fatalf("figure = %q with %d panels", fig.ID, len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.X) != len(ChaosFailuresPerDay) {
			t.Fatalf("panel %q has %d x points", p.Name, len(p.X))
		}
		if len(p.Series) != len(AllPolicies) {
			t.Fatalf("panel %q has %d series", p.Name, len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.Y) != len(p.X) {
				t.Fatalf("panel %q series %q: %d y for %d x", p.Name, s.Name, len(s.Y), len(p.X))
			}
		}
	}
}
