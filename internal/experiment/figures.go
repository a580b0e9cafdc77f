package experiment

import (
	"context"
	"fmt"

	"clustersched/internal/metrics"
	"clustersched/internal/workload"
)

// Series is one policy's line in a panel.
type Series struct {
	Name string
	Y    []float64
}

// Panel is one subplot of a figure: a metric against a swept parameter,
// one series per policy.
type Panel struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Figure is one of the paper's result figures.
type Figure struct {
	ID     string
	Title  string
	Panels []Panel
}

// Sweep values. The OCR blanks the exact tick labels; these spans are
// reconstructed from the surviving prose (e.g. figure 1's crossover at
// arrival delay factor ≈ 0.3 and its right edge at 1).
var (
	// Fig1Factors sweeps the arrival delay factor: < 1 compresses
	// arrivals (heavier workload).
	Fig1Factors = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	// Fig2Ratios sweeps the deadline high:low ratio.
	Fig2Ratios = []float64{1, 2, 4, 6, 8, 10}
	// Fig3HighUrgencyPct sweeps the share of high urgency jobs.
	Fig3HighUrgencyPct = []float64{0, 20, 40, 60, 80, 100}
	// Fig4InaccuracyPct sweeps runtime-estimate inaccuracy; 0 = accurate,
	// 100 = the trace's actual estimates.
	Fig4InaccuracyPct = []float64{0, 20, 40, 60, 80, 100}
	// Fig4UrgencyLevels are the two urgency mixes figure 4 contrasts.
	Fig4UrgencyLevels = []float64{20, 80}
)

// estimateModes pairs the two estimate regimes every one of figures 1-3
// shows side by side.
var estimateModes = []struct {
	label string
	pct   float64
}{
	{"accurate runtime estimate", 0},
	{"actual runtime estimate from trace", 100},
}

// twoMetricPanels assembles the standard 2×2 figure layout — fulfilled %
// and average slowdown, each under both estimate regimes — from a result
// matrix indexed [mode][policy][xIdx].
func twoMetricPanels(xLabel string, xs []float64, get func(modePct float64, pol PolicyKind, xi int) metrics.Summary) []Panel {
	panels := make([]Panel, 0, 4)
	letters := []string{"(a)", "(b)", "(c)", "(d)"}
	li := 0
	for _, metric := range []struct {
		yLabel string
		value  func(metrics.Summary) float64
	}{
		{"% of jobs with deadlines fulfilled", func(s metrics.Summary) float64 { return s.PctFulfilled }},
		{"average slowdown", func(s metrics.Summary) float64 { return s.AvgSlowdownMet }},
	} {
		for _, mode := range estimateModes {
			p := Panel{
				Name:   fmt.Sprintf("%s %s — %s", letters[li], metric.yLabel, mode.label),
				XLabel: xLabel,
				YLabel: metric.yLabel,
				X:      xs,
			}
			for _, pol := range AllPolicies {
				ys := make([]float64, len(xs))
				for i := range xs {
					ys[i] = metric.value(get(mode.pct, pol, i))
				}
				p.Series = append(p.Series, Series{Name: pol.String(), Y: ys})
			}
			panels = append(panels, p)
			li++
		}
	}
	return panels
}

// sweepGrid runs policy × estimate-mode × x-value and returns a lookup.
// Every spec is stamped with the figure label and the base workload seed
// so a failing cell identifies itself in one line.
func sweepGrid(ctx context.Context, label string, base BaseConfig, baseJobs []workload.Job, xs []float64, modePcts []float64, mkSpec func(modePct, x float64, pol PolicyKind) RunSpec) (func(modePct float64, pol PolicyKind, xi int) metrics.Summary, error) {
	var specs []RunSpec
	type key struct {
		mode float64
		pol  PolicyKind
		xi   int
	}
	index := map[key]int{}
	for _, mode := range modePcts {
		for _, pol := range AllPolicies {
			for xi, x := range xs {
				index[key{mode, pol, xi}] = len(specs)
				s := mkSpec(mode, x, pol)
				s.Label = label
				s.Seed = base.Generator.Seed
				specs = append(specs, s)
			}
		}
	}
	results := SweepContext(ctx, base, baseJobs, specs)
	if err := FirstError(results); err != nil {
		return nil, err
	}
	return func(modePct float64, pol PolicyKind, xi int) metrics.Summary {
		return results[index[key{modePct, pol, xi}]].Summary
	}, nil
}

// Figure1FromContext reproduces "Impact of varying workload": the arrival
// delay factor sweeps from heavy (0.1) to the trace's own intensity (1.0),
// over a pre-generated base workload.
func Figure1FromContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) (Figure, error) {
	get, err := sweepGrid(ctx, "figure1", base, baseJobs, Fig1Factors, modePcts(), func(mode, x float64, pol PolicyKind) RunSpec {
		return RunSpec{Policy: pol, ArrivalDelayFactor: x, InaccuracyPct: mode, Deadline: base.Deadline}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "figure1",
		Title:  "Impact of varying workload",
		Panels: twoMetricPanels("arrival delay factor", Fig1Factors, get),
	}, nil
}

// Figure2FromContext reproduces "Impact of varying deadline high:low
// ratio" over a pre-generated base workload.
func Figure2FromContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) (Figure, error) {
	get, err := sweepGrid(ctx, "figure2", base, baseJobs, Fig2Ratios, modePcts(), func(mode, x float64, pol PolicyKind) RunSpec {
		d := base.Deadline
		d.Ratio = x
		return RunSpec{Policy: pol, ArrivalDelayFactor: workload.DefaultArrivalDelayFactor, InaccuracyPct: mode, Deadline: d}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "figure2",
		Title:  "Impact of varying deadline high:low ratio",
		Panels: twoMetricPanels("deadline high:low ratio", Fig2Ratios, get),
	}, nil
}

// Figure3FromContext reproduces "Impact of varying high urgency jobs"
// over a pre-generated base workload.
func Figure3FromContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) (Figure, error) {
	get, err := sweepGrid(ctx, "figure3", base, baseJobs, Fig3HighUrgencyPct, modePcts(), func(mode, x float64, pol PolicyKind) RunSpec {
		d := base.Deadline
		d.HighUrgencyFraction = x / 100
		return RunSpec{Policy: pol, ArrivalDelayFactor: workload.DefaultArrivalDelayFactor, InaccuracyPct: mode, Deadline: d}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "figure3",
		Title:  "Impact of varying high urgency jobs",
		Panels: twoMetricPanels("% of high urgency jobs", Fig3HighUrgencyPct, get),
	}, nil
}

// Figure4FromContext reproduces "Impact of varying inaccurate runtime
// estimates", contrasting 20 % and 80 % high urgency mixes, over a
// pre-generated base workload.
func Figure4FromContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) (Figure, error) {
	get, err := sweepGrid(ctx, "figure4", base, baseJobs, Fig4InaccuracyPct, Fig4UrgencyLevels, func(mode, x float64, pol PolicyKind) RunSpec {
		d := base.Deadline
		d.HighUrgencyFraction = mode / 100
		return RunSpec{Policy: pol, ArrivalDelayFactor: workload.DefaultArrivalDelayFactor, InaccuracyPct: x, Deadline: d}
	})
	if err != nil {
		return Figure{}, err
	}
	panels := make([]Panel, 0, 4)
	letters := []string{"(a)", "(b)", "(c)", "(d)"}
	li := 0
	for _, metric := range []struct {
		yLabel string
		value  func(metrics.Summary) float64
	}{
		{"% of jobs with deadlines fulfilled", func(s metrics.Summary) float64 { return s.PctFulfilled }},
		{"average slowdown", func(s metrics.Summary) float64 { return s.AvgSlowdownMet }},
	} {
		for _, urg := range Fig4UrgencyLevels {
			p := Panel{
				Name:   fmt.Sprintf("%s %s — %.0f%% of high urgency jobs", letters[li], metric.yLabel, urg),
				XLabel: "% of inaccuracy",
				YLabel: metric.yLabel,
				X:      Fig4InaccuracyPct,
			}
			for _, pol := range AllPolicies {
				ys := make([]float64, len(Fig4InaccuracyPct))
				for i := range Fig4InaccuracyPct {
					ys[i] = metric.value(get(urg, pol, i))
				}
				p.Series = append(p.Series, Series{Name: pol.String(), Y: ys})
			}
			panels = append(panels, p)
			li++
		}
	}
	return Figure{
		ID:     "figure4",
		Title:  "Impact of varying inaccurate runtime estimates",
		Panels: panels,
	}, nil
}

func modePcts() []float64 {
	out := make([]float64, len(estimateModes))
	for i, m := range estimateModes {
		out[i] = m.pct
	}
	return out
}

// WorkloadTable summarizes the synthetic trace the way §4 characterizes
// the SDSC SP2 subset, so the substitution can be checked at a glance.
type WorkloadTable struct {
	Jobs                  int
	MeanInterarrivalSec   float64
	MeanRuntimeSec        float64
	MeanProcs             float64
	OfferedUtilization    float64
	PctExactEstimates     float64
	PctUnderestimates     float64
	PctOverestimates      float64
	MeanOverestimateRatio float64
}

// BuildWorkloadTableFrom computes the characteristics table from a
// pre-generated base workload, sharing the generation pass with the
// figure builders.
func BuildWorkloadTableFrom(base BaseConfig, jobs []workload.Job) (WorkloadTable, error) {
	var tbl WorkloadTable
	tbl.Jobs = len(jobs)
	var interSum, runSum, procSum, overSum float64
	var exact, under, over int
	for i, j := range jobs {
		if i > 0 {
			interSum += j.Submit - jobs[i-1].Submit
		}
		runSum += j.Runtime
		procSum += float64(j.NumProc)
		switch {
		case j.TraceEstimate == j.Runtime:
			exact++
		case j.TraceEstimate < j.Runtime:
			under++
		default:
			over++
			overSum += j.TraceEstimate / j.Runtime
		}
	}
	n := float64(len(jobs))
	if len(jobs) > 1 {
		tbl.MeanInterarrivalSec = interSum / (n - 1)
	}
	tbl.MeanRuntimeSec = runSum / n
	tbl.MeanProcs = procSum / n
	tbl.OfferedUtilization = workload.Utilization(jobs, base.Nodes)
	tbl.PctExactEstimates = 100 * float64(exact) / n
	tbl.PctUnderestimates = 100 * float64(under) / n
	tbl.PctOverestimates = 100 * float64(over) / n
	if over > 0 {
		tbl.MeanOverestimateRatio = overSum / float64(over)
	}
	return tbl, nil
}
