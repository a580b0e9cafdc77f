package experiment

import (
	"context"
	"fmt"

	"clustersched/internal/checkpoint"
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
// base workload, in parallel, and returns the points in grid order (policy
// major, rate minor). It runs under the same supervision contract as
// SweepContext: panic containment, the per-run watchdog, same-seed retry
// for transient failures, progress reporting, checkpoint/resume through
// BaseConfig.Journal (the mean σ aggregate rides the journal record), and
// cancellation that stops admission and aborts in-flight runs.
func ChaosSweepContext(ctx context.Context, base BaseConfig, baseJobs []workload.Job) []ChaosPoint {
	points := make([]ChaosPoint, 0, len(AllPolicies)*len(ChaosFailuresPerDay))
	specs := make([]RunSpec, 0, cap(points))
	for _, pol := range AllPolicies {
		for _, rate := range ChaosFailuresPerDay {
			i := len(points)
			points = append(points, ChaosPoint{Policy: pol, FailuresPerDay: rate})
			seed := ChaosSeed ^ (uint64(pol+1) << 40) ^ uint64(i)
			specs = append(specs, RunSpec{
				Policy:             pol,
				ArrivalDelayFactor: workload.DefaultArrivalDelayFactor,
				InaccuracyPct:      100,
				Deadline:           base.Deadline,
				Faults:             ChaosFaultConfig(rate, seed),
				Label:              "chaos",
				Seed:               base.Generator.Seed,
			})
		}
	}
	var digest string
	if base.Journal != nil {
		digest = WorkloadDigest(baseJobs)
	}
	finished := make([]bool, len(points))
	var progress func(i int, fromJournal bool)
	if base.Progress != nil {
		prog := newProgressCounter(base.Progress, len(points))
		progress = func(i int, fromJournal bool) {
			prog(ProgressEvent{Spec: specs[i], FromJournal: fromJournal, Err: points[i].Err})
		}
	} else {
		progress = func(int, bool) {}
	}
	workers := base.workerCount(len(points))
	scratches := newScratchPool(base, workers)
	RunPool(ctx, len(points), workers, func(w, i int) {
		pt, spec := &points[i], specs[i]
		var key string
		if base.Journal != nil {
			k, err := CellKey(base, spec, digest)
			if err != nil {
				pt.Err = &RunError{Spec: spec, Stage: "journal", Kind: FailEngine, Cause: err}
				finished[i] = true
				progress(i, false)
				return
			}
			key = k
			if rec, ok := base.Journal.Lookup(key); ok {
				pt.Summary, pt.MeanSigma = rec.Summary, rec.MeanSigma
				finished[i] = true
				progress(i, true)
				return
			}
		}
		sc := scratchFor(scratches, w)
		sum, sigma, err := superviseCell(ctx, base, spec, func(runCtx context.Context) (metrics.Summary, float64, error) {
			use := sc.acquire()
			s, mon, err := runInstrumented(runCtx, base, baseJobs, spec, ChaosMonitorInterval, use, i)
			use.release()
			var meanSigma float64
			if mon != nil {
				var sigmaSum float64
				samples := mon.Samples()
				for _, smp := range samples {
					sigmaSum += smp.MeanSigma
				}
				if len(samples) > 0 {
					meanSigma = sigmaSum / float64(len(samples))
				}
			}
			return s, meanSigma, err
		})
		pt.Summary, pt.MeanSigma, pt.Err = sum, sigma, err
		if err == nil && base.Journal != nil {
			if jerr := base.Journal.Append(checkpoint.Record{Key: key, Label: spec.Label, Summary: sum, MeanSigma: sigma}); jerr != nil {
				pt.Err = &RunError{Spec: spec, Stage: "journal", Kind: FailEngine, Attempts: 1, Cause: jerr}
			}
		}
		finished[i] = true
		progress(i, false)
	})
	if err := ctx.Err(); err != nil {
		for i := range points {
			if !finished[i] {
				points[i].Err = &RunError{
					Spec: specs[i], Stage: "admission", Kind: FailCanceled, Cause: err,
				}
			}
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
