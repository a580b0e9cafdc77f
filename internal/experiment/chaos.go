package experiment

import (
	"context"
	"fmt"

	"clustersched/internal/fault"
	"clustersched/internal/metrics"
	"clustersched/internal/workload"
)

// Chaos experiment defaults: a "Figure 5" the paper never ran, opening the
// other axis of deadline risk — machines that fail. Failure rates are in
// node failures per simulated day; each becomes an exponential MTBF.
var (
	// ChaosFailuresPerDay sweeps from no failures to an aggressively
	// unreliable cluster (4 failures per node-day).
	ChaosFailuresPerDay = []float64{0, 0.25, 0.5, 1, 2, 4}
	// ChaosMTTRSeconds is the mean repair time (1 hour).
	ChaosMTTRSeconds = 3600.0
	// ChaosMonitorInterval is the σ sampling period for time-shared runs.
	ChaosMonitorInterval = 600.0
	// ChaosSeed derives each run's fault streams (mixed with the policy
	// and rate indices so every grid cell has an independent trace).
	ChaosSeed uint64 = 0x5eed_fa11
)

// ChaosPoint is one grid cell of the chaos sweep.
type ChaosPoint struct {
	Policy         PolicyKind
	FailuresPerDay float64
	Summary        metrics.Summary
	// MeanSigma is the run's time-averaged cluster risk σ (time-shared
	// policies only; 0 for EDF, which has no risk metric).
	MeanSigma float64
	Err       error
}

// ChaosFaultConfig builds the fault configuration for one grid cell:
// failuresPerDay exponential crashes per node with a fixed MTTR, plus a
// mild straggler process at one-quarter of the crash rate that halves a
// node's speed for ten minutes on average.
func ChaosFaultConfig(failuresPerDay float64, seed uint64) fault.Config {
	if failuresPerDay <= 0 {
		return fault.Config{}
	}
	mtbf := 86400 / failuresPerDay
	return fault.Config{
		Seed:              seed,
		MTBF:              mtbf,
		MTTR:              ChaosMTTRSeconds,
		StragglerMTBF:     4 * mtbf,
		StragglerDuration: 600,
		StragglerFactor:   0.5,
	}
}

// ChaosSweepContext runs the failure-rate × policy grid over a shared
// base workload through SweepContext, so it has the same supervision,
// progress reporting, checkpoint/resume and cancellation, and returns the
// points in grid order (policy major, rate minor).
func ChaosSweepContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) []ChaosPoint {
	var specs []RunSpec
	for _, pol := range AllPolicies {
		for _, rate := range ChaosFailuresPerDay {
			seed := ChaosSeed ^ (uint64(pol+1) << 40) ^ uint64(len(specs))
			specs = append(specs, RunSpec{
				Policy:             pol,
				ArrivalDelayFactor: workload.DefaultArrivalDelayFactor,
				InaccuracyPct:      100,
				Deadline:           base.Deadline,
				Faults:             ChaosFaultConfig(rate, seed),
				Label:              "chaos",
				Seed:               base.Generator.Seed,
				MonitorInterval:    ChaosMonitorInterval,
			})
		}
	}
	results := SweepContext(ctx, base, baseJobs, specs)
	points := make([]ChaosPoint, len(results))
	for i, r := range results {
		points[i] = ChaosPoint{
			Policy:         r.Spec.Policy,
			FailuresPerDay: ChaosFailuresPerDay[i%len(ChaosFailuresPerDay)],
			Summary:        r.Summary,
			MeanSigma:      r.MeanSigma,
			Err:            r.Err,
		}
	}
	return points
}

// FigureChaosFromContext builds the chaos figure over a pre-generated
// base workload: deadline-met fraction, crash-killed jobs, and mean
// cluster risk σ against the node failure rate, under trace runtime
// estimates.
func FigureChaosFromContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) (Figure, error) {
	points := ChaosSweepContext(ctx, base, baseJobs)
	lookup := make(map[PolicyKind]map[float64]*ChaosPoint, len(AllPolicies))
	for i := range points {
		pt := &points[i]
		if pt.Err != nil {
			return Figure{}, fmt.Errorf("experiment: chaos %s rate=%g: %w", pt.Policy, pt.FailuresPerDay, pt.Err)
		}
		if lookup[pt.Policy] == nil {
			lookup[pt.Policy] = make(map[float64]*ChaosPoint, len(ChaosFailuresPerDay))
		}
		lookup[pt.Policy][pt.FailuresPerDay] = pt
	}
	panels := make([]Panel, 0, 3)
	for _, metric := range []struct {
		name   string
		yLabel string
		value  func(*ChaosPoint) float64
	}{
		{"(a)", "% of jobs with deadlines fulfilled", func(p *ChaosPoint) float64 { return p.Summary.PctFulfilled }},
		{"(b)", "jobs killed by node crashes", func(p *ChaosPoint) float64 { return float64(p.Summary.Killed) }},
		{"(c)", "mean cluster risk sigma", func(p *ChaosPoint) float64 { return p.MeanSigma }},
	} {
		panel := Panel{
			Name:   fmt.Sprintf("%s %s — actual runtime estimate from trace", metric.name, metric.yLabel),
			XLabel: "node failures per day",
			YLabel: metric.yLabel,
			X:      ChaosFailuresPerDay,
		}
		for _, pol := range AllPolicies {
			ys := make([]float64, len(ChaosFailuresPerDay))
			for i, rate := range ChaosFailuresPerDay {
				ys[i] = metric.value(lookup[pol][rate])
			}
			panel.Series = append(panel.Series, Series{Name: pol.String(), Y: ys})
		}
		panels = append(panels, panel)
	}
	return Figure{
		ID:     "chaos",
		Title:  "Impact of node failures (chaos experiment)",
		Panels: panels,
	}, nil
}
