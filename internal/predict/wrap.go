package predict

import (
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// Wrapped is a core.Policy that substitutes each job's estimate with the
// predictor's output before handing it to the inner policy, and feeds the
// predictor every completion as it happens — the system-generated-estimate
// deployment model.
type Wrapped struct {
	Inner     core.Policy
	Predictor Predictor

	// submitted remembers user estimates and real runtimes by job id so
	// completions can be fed back to the predictor.
	submitted map[int]workload.Job
	estimates map[int]float64
}

// Wrap installs the predictor in front of the inner policy, hooking the
// recorder's observer so completions reach the predictor online. It must
// be called after the inner policy is constructed (the inner policy owns
// the cluster's completion callback; Wrap only observes the recorder).
func Wrap(inner core.Policy, rec *metrics.Recorder, p Predictor) *Wrapped {
	w := &Wrapped{
		Inner:     inner,
		Predictor: p,
		submitted: make(map[int]workload.Job),
		estimates: make(map[int]float64),
	}
	prev := rec.Observer
	rec.Observer = func(res metrics.JobResult) {
		if prev != nil {
			prev(res)
		}
		w.observe(res)
	}
	return w
}

// Name implements core.Policy.
func (w *Wrapped) Name() string { return w.Inner.Name() + "+" + w.Predictor.Name() }

// Submit implements core.Policy: replace the user's estimate with the
// prediction, then delegate, returning the inner policy's decision.
func (w *Wrapped) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	w.submitted[job.ID] = job
	w.estimates[job.ID] = estimate
	pred := w.Predictor.Predict(job.UserID, estimate)
	return w.Inner.Submit(e, job, pred)
}

// observe feeds completions to the predictor. Rejections carry no runtime
// signal; real systems never observe them either.
func (w *Wrapped) observe(res metrics.JobResult) {
	job, ok := w.submitted[res.JobID]
	if !ok {
		return
	}
	delete(w.submitted, res.JobID)
	est := w.estimates[res.JobID]
	delete(w.estimates, res.JobID)
	if res.Outcome == metrics.Met || res.Outcome == metrics.Missed {
		// The completed job's wallclock is observable; its dedicated
		// runtime is what estimates denote, which the job model carries.
		w.Predictor.Observe(job.UserID, est, job.Runtime)
	}
}
