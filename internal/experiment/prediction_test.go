package experiment

import (
	"context"
	"testing"

	"clustersched/internal/workload"
)

func predBase() BaseConfig {
	base := testBase()
	base.Generator.Jobs = 250
	base.Generator.Users = workload.DefaultUserModelConfig()
	return base
}

func TestRunWithPredictorIdentityMatchesPlainRun(t *testing.T) {
	base := predBase()
	jobs, err := workload.Generate(base.Generator)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Policy: Libra, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline}
	plain, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Estimator = "user-estimate"
	wrapped, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain != wrapped {
		t.Fatalf("identity predictor changed the outcome:\n%+v\n%+v", plain, wrapped)
	}
}

func TestRunWithPredictorUnknownEstimator(t *testing.T) {
	base := predBase()
	jobs, err := workload.Generate(base.Generator)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Policy: Libra, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline}
	spec.Estimator = "oracle"
	if _, err := Run(base, jobs, spec); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

func TestPredictionHelpsLibra(t *testing.T) {
	// The extension's point: learned estimates should lift Libra's
	// fulfilled percentage under fully inaccurate user estimates.
	base := predBase()
	base.Generator.Jobs = 500
	jobs, err := workload.Generate(base.Generator)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Policy: Libra, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline}
	spec.Estimator = "user-estimate"
	baseRun, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Estimator = "scaling"
	scaled, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.PctFulfilled <= baseRun.PctFulfilled {
		t.Errorf("scaling predictor %.1f%% should beat raw user estimates %.1f%%",
			scaled.PctFulfilled, baseRun.PctFulfilled)
	}
}

func TestFigurePredictionShape(t *testing.T) {
	base := predBase()
	base.Generator.Jobs = 120
	f, err := FigurePrediction(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "prediction" || len(f.Panels) != 4 {
		t.Fatalf("figure = %q with %d panels", f.ID, len(f.Panels))
	}
	for _, p := range f.Panels {
		if len(p.Series) != len(EstimatorNames) {
			t.Fatalf("panel %q series = %d", p.Name, len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.Y) != len(p.X) {
				t.Fatalf("series %q length mismatch", s.Name)
			}
		}
	}
}
