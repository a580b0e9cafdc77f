package experiment

import (
	"fmt"

	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/predict"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// EstimatorNames are the runtime-estimate sources compared by the
// prediction extension experiment.
var EstimatorNames = []string{"user-estimate", "recent-average", "scaling"}

// RunWithPredictor executes one simulation with the named predictor
// correcting estimates online. The workload must carry user IDs
// (Generator.Users enabled) for history-based predictors to bite.
func RunWithPredictor(base BaseConfig, baseJobs []workload.Job, spec RunSpec, estimator string) (metrics.Summary, error) {
	jobs, err := workload.AssignDeadlines(baseJobs, spec.Deadline)
	if err != nil {
		return metrics.Summary{}, err
	}
	jobs = workload.ScaleArrivals(jobs, spec.ArrivalDelayFactor)

	e := sim.NewEngine()
	rec := metrics.NewRecorder()
	inner, _, _, err := buildPolicyClusters(base, spec.Policy, rec)
	if err != nil {
		return metrics.Summary{}, err
	}
	pred, err := predict.New(estimator)
	if err != nil {
		return metrics.Summary{}, err
	}
	pol := predict.Wrap(inner, rec, pred)
	if err := core.RunSimulation(e, pol, rec, jobs, spec.InaccuracyPct); err != nil {
		return metrics.Summary{}, err
	}
	return rec.Summarize(), nil
}

// FigurePrediction is the extension experiment: can system-generated
// estimates (Tsafrir-style recent-average, style-learning scaling) rescue
// Libra, and how much headroom do they leave LibraRisk? Four panels:
// fulfilled % and slowdown for Libra and LibraRisk, one series per
// estimator, swept over estimate inaccuracy, on a user-model workload.
func FigurePrediction(base BaseConfig) (Figure, error) {
	gen := base.Generator
	if gen.Users.Count == 0 {
		gen.Users = workload.DefaultUserModelConfig()
	}
	baseJobs, err := workload.Generate(gen)
	if err != nil {
		return Figure{}, err
	}
	xs := Fig4InaccuracyPct
	policies := []PolicyKind{Libra, LibraRisk}

	type key struct {
		pol PolicyKind
		est string
		xi  int
	}
	results := map[key]metrics.Summary{}
	for _, pol := range policies {
		for _, est := range EstimatorNames {
			for xi, x := range xs {
				spec := RunSpec{Policy: pol, ArrivalDelayFactor: workload.DefaultArrivalDelayFactor, InaccuracyPct: x, Deadline: base.Deadline}
				s, err := RunWithPredictor(base, baseJobs, spec, est)
				if err != nil {
					return Figure{}, err
				}
				results[key{pol, est, xi}] = s
			}
		}
	}

	var panels []Panel
	letters := []string{"(a)", "(b)", "(c)", "(d)"}
	li := 0
	for _, metric := range []struct {
		yLabel string
		value  func(metrics.Summary) float64
	}{
		{"% of jobs with deadlines fulfilled", func(s metrics.Summary) float64 { return s.PctFulfilled }},
		{"average slowdown", func(s metrics.Summary) float64 { return s.AvgSlowdownMet }},
	} {
		for _, pol := range policies {
			p := Panel{
				Name:   fmt.Sprintf("%s %s — %s with predicted estimates", letters[li], metric.yLabel, pol),
				XLabel: "% of inaccuracy",
				YLabel: metric.yLabel,
				X:      xs,
			}
			for _, est := range EstimatorNames {
				ys := make([]float64, len(xs))
				for xi := range xs {
					ys[xi] = metric.value(results[key{pol, est, xi}])
				}
				p.Series = append(p.Series, Series{Name: est, Y: ys})
			}
			panels = append(panels, p)
			li++
		}
	}
	return Figure{
		ID:     "prediction",
		Title:  "Extension: system-generated runtime estimates vs admission control",
		Panels: panels,
	}, nil
}
