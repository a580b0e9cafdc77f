package experiment

import (
	"context"

	"clustersched/internal/metrics"
)

// FigureAllPolicies is the seven-way extension comparison: the paper's
// three policies plus FCFS, EASY/conservative backfilling and QoPS, swept
// over the arrival delay factor with trace estimates — where do the
// mainstream estimate consumers land between Libra and LibraRisk?
func FigureAllPolicies(ctx context.Context, base BaseConfig) (Figure, error) {
	baseJobs, err := GenerateBase(base)
	if err != nil {
		return Figure{}, err
	}
	policies := append(append([]PolicyKind(nil), AllPolicies...), ExtensionPolicies...)
	var specs []RunSpec
	index := map[[2]int]int{}
	for pi, pol := range policies {
		for xi, x := range Fig1Factors {
			index[[2]int{pi, xi}] = len(specs)
			specs = append(specs, RunSpec{Policy: pol, ArrivalDelayFactor: x, InaccuracyPct: 100, Deadline: base.Deadline, Label: "allpolicies"})
		}
	}
	results := SweepContext(ctx, base, baseJobs, specs)
	if err := FirstError(results); err != nil {
		return Figure{}, err
	}
	mkPanel := func(name, yLabel string, get func(metrics.Summary) float64) Panel {
		p := Panel{Name: name, XLabel: "arrival delay factor", YLabel: yLabel, X: Fig1Factors}
		for pi, pol := range policies {
			ys := make([]float64, len(Fig1Factors))
			for xi := range Fig1Factors {
				ys[xi] = get(results[index[[2]int{pi, xi}]].Summary)
			}
			p.Series = append(p.Series, Series{Name: pol.String(), Y: ys})
		}
		return p
	}
	return Figure{
		ID:    "allpolicies",
		Title: "Extension: seven-way policy comparison under trace estimates",
		Panels: []Panel{
			mkPanel("(a) % of jobs with deadlines fulfilled — actual runtime estimate from trace",
				"% of jobs with deadlines fulfilled", func(s metrics.Summary) float64 { return s.PctFulfilled }),
			mkPanel("(b) average slowdown — actual runtime estimate from trace",
				"average slowdown", func(s metrics.Summary) float64 { return s.AvgSlowdownMet }),
		},
	}, nil
}

// HeteroImbalances are the speed-imbalance levels the heterogeneity study
// sweeps: half the nodes run at (1+δ)×, the other half at (1−δ)× the
// reference rating, keeping aggregate capacity constant.
var HeteroImbalances = []float64{0, 0.25, 0.5, 0.75}

// HeteroRatings builds the split-speed rating vector for imbalance delta.
func HeteroRatings(nodes int, rating, delta float64) []float64 {
	out := make([]float64, nodes)
	for i := range out {
		if i < nodes/2 {
			out[i] = rating * (1 + delta)
		} else {
			out[i] = rating * (1 - delta)
		}
	}
	return out
}

// FigureHetero is the heterogeneity extension: the paper's model
// translates estimates across node speeds but evaluates a homogeneous
// SP2; this experiment measures how a constant-capacity speed imbalance
// affects each policy (gang-scheduled EDF runs at its slowest member's
// pace; proportional-share nodes absorb imbalance per slice).
func FigureHetero(ctx context.Context, base BaseConfig) (Figure, error) {
	baseJobs, err := GenerateBase(base)
	if err != nil {
		return Figure{}, err
	}
	// Each imbalance has its own cluster geometry, so each gets one sweep
	// over the shared base jobs.
	type key struct {
		mode float64
		pol  PolicyKind
		xi   int
	}
	sums := map[key]metrics.Summary{}
	for xi, delta := range HeteroImbalances {
		b := base
		b.Ratings = HeteroRatings(base.Nodes, base.Rating, delta)
		var specs []RunSpec
		for _, mode := range estimateModes {
			for _, pol := range AllPolicies {
				specs = append(specs, RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: mode.pct, Deadline: base.Deadline, Label: "hetero"})
			}
		}
		results := SweepContext(ctx, b, baseJobs, specs)
		if err := FirstError(results); err != nil {
			return Figure{}, err
		}
		for _, r := range results {
			sums[key{r.Spec.InaccuracyPct, r.Spec.Policy, xi}] = r.Summary
		}
	}
	return Figure{
		ID:    "hetero",
		Title: "Extension: constant-capacity node-speed imbalance",
		Panels: twoMetricPanels("node speed imbalance ±δ", HeteroImbalances, func(mode float64, pol PolicyKind, xi int) metrics.Summary {
			return sums[key{mode, pol, xi}]
		}),
	}, nil
}
