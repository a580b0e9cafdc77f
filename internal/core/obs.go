package core

import (
	"clustersched/internal/obs"
	"clustersched/internal/workload"
)

// obsHooks is the per-run observability attachment every admission policy
// embeds: an event tracer, a pre-resolved metrics bundle, and an audit
// log. All fields default to nil, so a policy with observability off pays
// one pointer comparison per would-be emission and nothing else. The
// experiment layer attaches fresh hooks per run via SetObs and detaches
// them (all nil) before the context is reused.
type obsHooks struct {
	Trace obs.Tracer
	Sim   *obs.SimMetrics
	Audit *obs.AuditLog
}

// SetObs attaches (or with all-nil arguments detaches) the observability
// hooks.
func (o *obsHooks) SetObs(t obs.Tracer, m *obs.SimMetrics, a *obs.AuditLog) {
	o.Trace, o.Sim, o.Audit = t, m, a
}

// arriveObs reports a fresh submission (not a crash resubmission).
func (o *obsHooks) arriveObs(now float64, job workload.Job) {
	if o.Trace != nil {
		o.Trace.Emit(obs.Event{Time: now, Kind: obs.KindArrive, Job: job.ID, Node: -1})
	}
	if o.Sim != nil {
		o.Sim.Submitted.Inc()
	}
}

// beginObs opens the audit record for one admission decision. Every path
// out of the decision must end in rejectObs or an accept emission.
func (o *obsHooks) beginObs(now float64, job workload.Job, estimate float64, resubmit bool) {
	if o.Audit != nil {
		o.Audit.Begin(now, job.ID, job.NumProc, estimate, job.AbsDeadline(), resubmit)
	}
}

// rejectObs reports a rejection and closes the audit record. It does NOT
// touch the metrics Recorder — callers pair it with Recorder.Reject so
// the audit decision count always equals the recorded rejection count.
func (o *obsHooks) rejectObs(now float64, job workload.Job, reason string) {
	if o.Trace != nil {
		o.Trace.Emit(obs.Event{Time: now, Kind: obs.KindReject, Job: job.ID, Node: -1, Detail: reason})
	}
	if o.Sim != nil {
		o.Sim.Rejected.Inc()
	}
	if o.Audit != nil {
		o.Audit.Reject(reason)
	}
}

// acceptObs reports an acceptance and closes the audit record. value is
// the policy's acceptance measure (max σ over the chosen nodes for
// LibraRisk, max admitted share for Libra, queue wait in events for EDF).
func (o *obsHooks) acceptObs(now float64, job workload.Job, chosen []int, value float64) {
	if o.Trace != nil {
		node := -1
		if len(chosen) > 0 {
			node = chosen[0]
		}
		o.Trace.Emit(obs.Event{Time: now, Kind: obs.KindAdmit, Job: job.ID, Node: node, Value: value})
	}
	if o.Sim != nil {
		o.Sim.Admitted.Inc()
	}
	if o.Audit != nil {
		o.Audit.Accept(chosen)
	}
}

// auditing reports whether an audit log is attached (used to gate
// audit-only slow paths that compute real per-node numbers).
func (o *obsHooks) auditing() bool { return o.Audit != nil }
