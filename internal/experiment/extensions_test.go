package experiment

import (
	"context"
	"testing"
)

func TestRunExtensionPolicies(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 200
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range ExtensionPolicies {
		s, err := Run(base, jobs, RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if s.Submitted != 200 || s.Unfinished != 0 {
			t.Fatalf("%v: %+v", pol, s)
		}
		if s.Met == 0 {
			t.Fatalf("%v: no jobs met", pol)
		}
	}
}

func TestPolicyKindStringsExtended(t *testing.T) {
	want := map[PolicyKind]string{
		FCFS: "FCFS", BackfillEASY: "EASY", BackfillCons: "Conservative", QoPS: "QoPS",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestFigureAllPoliciesShape(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 120
	f, err := FigureAllPolicies(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "allpolicies" || len(f.Panels) != 2 {
		t.Fatalf("figure = %q with %d panels", f.ID, len(f.Panels))
	}
	for _, p := range f.Panels {
		if len(p.Series) != len(AllPolicies)+len(ExtensionPolicies) {
			t.Fatalf("panel %q series = %d, want 7", p.Name, len(p.Series))
		}
	}
}

func TestHeteroRatings(t *testing.T) {
	r := HeteroRatings(4, 100, 0.5)
	want := []float64{150, 150, 50, 50}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("HeteroRatings = %v, want %v", r, want)
		}
	}
	// δ = 0 is homogeneous; aggregate capacity constant across δ.
	for _, delta := range HeteroImbalances {
		rs := HeteroRatings(8, 168, delta)
		var sum float64
		for _, v := range rs {
			sum += v
		}
		if sum != 8*168 {
			t.Fatalf("δ=%g aggregate capacity %v, want constant", delta, sum)
		}
	}
}

func TestFigureHeteroShape(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 120
	f, err := FigureHetero(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "hetero" || len(f.Panels) != 4 {
		t.Fatalf("figure = %q with %d panels", f.ID, len(f.Panels))
	}
	for _, p := range f.Panels {
		if len(p.X) != len(HeteroImbalances) || len(p.Series) != len(AllPolicies) {
			t.Fatalf("panel %q dims wrong", p.Name)
		}
	}
}

// TestHeteroShapeEDFDegradesLibraRobust locks in the heterogeneity
// finding: with aggregate capacity constant, speed imbalance hurts
// gang-scheduled EDF far more than the proportional-share policies.
func TestHeteroShapeEDFDegradesLibraRobust(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 300
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	at := func(pol PolicyKind, delta float64) float64 {
		b := base
		b.Ratings = HeteroRatings(base.Nodes, 168, delta)
		s, err := Run(b, jobs, RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline})
		if err != nil {
			t.Fatal(err)
		}
		return s.PctFulfilled
	}
	edfDrop := at(EDF, 0) - at(EDF, 0.75)
	riskDrop := at(LibraRisk, 0) - at(LibraRisk, 0.75)
	if edfDrop <= riskDrop {
		t.Errorf("EDF drop %.1f should exceed LibraRisk drop %.1f under imbalance", edfDrop, riskDrop)
	}
	if edfDrop < 5 {
		t.Errorf("EDF drop %.1f implausibly small; gang pacing not modeled?", edfDrop)
	}
}

func TestRunHeterogeneousBase(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 150
	base.Ratings = HeteroRatings(base.Nodes, 168, 0.5)
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range AllPolicies {
		s, err := Run(base, jobs, RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if s.Unfinished != 0 || s.Met == 0 {
			t.Fatalf("%v on hetero cluster: %+v", pol, s)
		}
	}
}
