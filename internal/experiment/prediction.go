package experiment

import (
	"context"
	"fmt"

	"clustersched/internal/metrics"
	"clustersched/internal/workload"
)

// EstimatorNames are the runtime-estimate sources compared by the
// prediction extension experiment.
var EstimatorNames = []string{"user-estimate", "recent-average", "scaling"}

// FigurePrediction is the extension experiment: can system-generated
// estimates (Tsafrir-style recent-average, style-learning scaling) rescue
// Libra, and how much headroom do they leave LibraRisk? Four panels:
// fulfilled % and slowdown for Libra and LibraRisk, one series per
// estimator, swept over estimate inaccuracy, on a user-model workload.
func FigurePrediction(ctx context.Context, base BaseConfig) (Figure, error) {
	if base.Generator.Users.Count == 0 {
		base.Generator.Users = workload.DefaultUserModelConfig()
	}
	baseJobs, err := GenerateBase(base)
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
	index := map[key]int{}
	var specs []RunSpec
	for _, pol := range policies {
		for _, est := range EstimatorNames {
			for xi, x := range xs {
				index[key{pol, est, xi}] = len(specs)
				specs = append(specs, RunSpec{
					Policy: pol, ArrivalDelayFactor: workload.DefaultArrivalDelayFactor, InaccuracyPct: x,
					Deadline: base.Deadline, Label: "prediction", Estimator: est,
				})
			}
		}
	}
	results := SweepContext(ctx, base, baseJobs, specs)
	if err := FirstError(results); err != nil {
		return Figure{}, err
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
					ys[xi] = metric.value(results[index[key{pol, est, xi}]].Summary)
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
