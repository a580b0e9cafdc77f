package core

import (
	"context"
	"fmt"

	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// defaultEventBudget is a generous runaway guard: well above what any
// paper-scale workload generates, small enough to fail fast on a model
// regression that loops.
const defaultEventBudget = 50_000_000

// RunSimulation feeds every job to the policy at its submit time, with the
// estimate visible at the given inaccuracy level (0 = perfectly accurate,
// 100 = the trace's actual estimates), runs the simulation to completion,
// and flushes the recorder so unfinished jobs are accounted for.
func RunSimulation(e *sim.Engine, p Policy, rec *metrics.Recorder, jobs []workload.Job, inaccuracyPct float64) error {
	var d ArrivalDriver
	return RunSimulationReusing(context.Background(), e, p, rec, jobs, inaccuracyPct, &d)
}

// RunSimulationReusing is RunSimulation with cooperative cancellation and
// a caller-owned ArrivalDriver. The engine polls ctx between events, so a
// canceled or expired context aborts the run at event-loop granularity
// with a wrapped context error; the recorder is only flushed on a
// completed run. Repeated runs reuse the driver's persistent handler
// instead of allocating per-run arrival closures.
func RunSimulationReusing(ctx context.Context, e *sim.Engine, p Policy, rec *metrics.Recorder, jobs []workload.Job, inaccuracyPct float64, d *ArrivalDriver) error {
	if err := workload.ValidateAll(jobs); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	d.begin(e, p, jobs, inaccuracyPct)
	if e.MaxEvents == 0 {
		e.MaxEvents = defaultEventBudget
	}
	if err := e.RunContext(ctx); err != nil {
		return fmt.Errorf("core: simulation aborted: %w", err)
	}
	rec.Flush()
	return nil
}

// ArrivalDriver feeds a job stream to a policy with one chained event: each
// arrival schedules the next before submitting its own job, so a run holds
// at most one arrival event and one persistent handler instead of a closure
// per job. The zero value is ready to use and can be reused across runs.
//
// Chaining preserves the exact event ordering of the schedule-everything-
// up-front approach: arrivals are the only PriorityArrival events, job
// submit times are validated nondecreasing, and each arrival's event is
// created before any later arrival's — so the (time, priority, sequence)
// order among arrivals, and between arrivals and any other event, is
// unchanged.
type ArrivalDriver struct {
	p    Policy
	jobs []workload.Job
	pct  float64
	i    int
	h    sim.Handler
}

// begin points the driver at a run's policy and job stream and schedules
// the first arrival.
func (d *ArrivalDriver) begin(e *sim.Engine, p Policy, jobs []workload.Job, inaccuracyPct float64) {
	d.p, d.jobs, d.pct, d.i = p, jobs, inaccuracyPct, 0
	if d.h == nil {
		d.h = d.fire
	}
	if len(jobs) > 0 {
		e.At(jobs[0].Submit, sim.PriorityArrival, d.h)
	}
}

func (d *ArrivalDriver) fire(e *sim.Engine) {
	j := d.jobs[d.i]
	d.i++
	if d.i < len(d.jobs) {
		e.At(d.jobs[d.i].Submit, sim.PriorityArrival, d.h)
	}
	d.p.Submit(e, j, j.EstimateAt(d.pct))
}
