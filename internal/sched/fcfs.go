package sched

import (
	"fmt"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// FCFS is the classic first-come-first-served space-shared scheduler: the
// oldest queued job waits for its processors; nothing overtakes it. Like
// the paper's EDF it applies lazy deadline admission — a job is dropped
// only when selected for execution with an expired or (per its estimate)
// unreachable deadline. It is the weakest reasonable baseline and the
// starting point for the backfilling variants.
type FCFS struct {
	Cluster  *cluster.SpaceShared
	Recorder *metrics.Recorder

	queue []queued
	arr   arrival
}

type queued struct {
	job      workload.Job
	estimate float64
}

// arrival is the decision a space-shared policy's Submit returns. These
// policies reject lazily, when a dispatch pass selects a job, so the
// dispatch a Submit triggers can reject the arriving job inside the same
// call; reject notes that. A job left queued counts as accepted.
type arrival struct {
	id     int
	reason string // "" unless the arriving job was rejected
}

// begin registers job's submission and watches it for the rest of the
// Submit call. It rejects, and reports false for, a job that needs more
// processors than the cluster's procs.
func (a *arrival) begin(rec *metrics.Recorder, job workload.Job, procs int) bool {
	rec.Submitted(job)
	a.id, a.reason = job.ID, ""
	if job.NumProc > procs {
		a.reject(rec, job, fmt.Sprintf("needs %d processors, cluster has %d", job.NumProc, procs))
		return false
	}
	return true
}

// reject records a rejection, noting it when it hits the arriving job.
func (a *arrival) reject(rec *metrics.Recorder, job workload.Job, reason string) {
	rec.Reject(job, reason)
	if job.ID == a.id {
		a.reason = reason
	}
}

// decision is what Submit returns for the watched job.
func (a *arrival) decision() (bool, string) { return a.reason == "", a.reason }

// NewFCFS wires an FCFS policy to a space-shared cluster.
func NewFCFS(c *cluster.SpaceShared, rec *metrics.Recorder) *FCFS {
	p := &FCFS{Cluster: c, Recorder: rec}
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		rec.Complete(rj.Job, rj.Finish, c.MinRuntime(rj))
		p.dispatch(e)
	}
	return p
}

// Name implements core.Policy.
func (p *FCFS) Name() string { return "FCFS" }

// QueueLen returns the number of waiting jobs.
func (p *FCFS) QueueLen() int { return len(p.queue) }

// Submit implements core.Policy.
func (p *FCFS) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	if p.arr.begin(p.Recorder, job, p.Cluster.Len()) {
		p.queue = append(p.queue, queued{job: job, estimate: estimate})
		p.dispatch(e)
	}
	return p.arr.decision()
}

func (p *FCFS) dispatch(e *sim.Engine) {
	now := e.Now()
	for len(p.queue) > 0 {
		head := p.queue[0]
		if p.Cluster.FreeCount() < head.job.NumProc {
			return
		}
		p.queue = p.queue[1:]
		if now >= head.job.AbsDeadline() {
			p.arr.reject(p.Recorder, head.job, "deadline expired while queued")
			continue
		}
		if rt, ok := p.Cluster.RuntimeOn(head.estimate, head.job.NumProc); ok && now+rt > head.job.AbsDeadline() {
			p.arr.reject(p.Recorder, head.job, "deadline unreachable per runtime estimate")
			continue
		}
		if _, err := p.Cluster.Start(e, head.job, head.estimate); err != nil {
			p.arr.reject(p.Recorder, head.job, "start failed: "+err.Error())
		}
	}
}
