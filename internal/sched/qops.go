package sched

import (
	"slices"
	"sort"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// QoPS is a slack-based deadline admission control in the spirit of Islam
// et al.'s QoPS (Cluster 2004), which the paper's §2 contrasts with
// Libra's hard deadlines: each admitted job tolerates its deadline
// slipping by up to SlackFactor × its estimated runtime if that admits a
// later, more urgent job. Admission builds a hypothetical deadline-ordered
// plan over the availability profile and accepts the new job only if every
// queued and new job still meets its slacked deadline.
//
// This simplified re-planning variant captures QoPS's admission semantics
// (schedule-feasibility with bounded slack) without its pairwise schedule
// exchanges.
type QoPS struct {
	Cluster  *cluster.SpaceShared
	Recorder *metrics.Recorder
	// SlackFactor >= 0: how many estimated runtimes a job's deadline may
	// slip. 0 degenerates to hard deadlines.
	SlackFactor float64

	queue []queued
	arr   arrival
}

// NewQoPS wires the policy to a space-shared cluster with the given slack
// factor.
func NewQoPS(c *cluster.SpaceShared, rec *metrics.Recorder, slack float64) *QoPS {
	p := &QoPS{Cluster: c, Recorder: rec, SlackFactor: slack}
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		rec.Complete(rj.Job, rj.Finish, c.MinRuntime(rj))
		p.dispatch(e)
	}
	return p
}

// Name implements core.Policy.
func (p *QoPS) Name() string { return "QoPS" }

// QueueLen returns the number of admitted-but-waiting jobs.
func (p *QoPS) QueueLen() int { return len(p.queue) }

// Submit implements core.Policy: admission by schedule feasibility.
func (p *QoPS) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	if !p.arr.begin(p.Recorder, job, p.Cluster.Len()) {
		return p.arr.decision()
	}
	// The queue is in earliest-slacked-deadline order and only its head
	// leaves, so inserting after every job of no later slacked deadline
	// keeps it sorted.
	q := queued{job: job, estimate: estimate}
	at := sort.Search(len(p.queue), func(i int) bool { return p.slackedDeadline(p.queue[i]) > p.slackedDeadline(q) })
	p.queue = slices.Insert(p.queue, at, q)
	if p.feasible(e.Now()) {
		p.dispatch(e)
	} else {
		p.queue = slices.Delete(p.queue, at, at+1)
		p.arr.reject(p.Recorder, job, "no slack-feasible schedule admits the job")
	}
	return p.arr.decision()
}

// slackedDeadline is the latest acceptable finish under the slack rule.
func (p *QoPS) slackedDeadline(q queued) float64 {
	return q.job.AbsDeadline() + p.SlackFactor*q.estimate
}

// feasible plans the queue in its (earliest-slacked-deadline) order over
// the current availability profile and reports whether every job's planned
// finish meets its slacked deadline.
func (p *QoPS) feasible(now float64) bool {
	prof := runningProfile(p.Cluster, now)
	for _, q := range p.queue {
		dur, ok := p.Cluster.BestPossibleRuntime(q.estimate, q.job.NumProc)
		if !ok {
			return false
		}
		start := prof.EarliestSlot(now, dur, q.job.NumProc)
		if start+dur > p.slackedDeadline(q) {
			return false
		}
		prof.Reserve(start, start+dur, q.job.NumProc)
	}
	return true
}

// dispatch starts queued jobs in earliest-slacked-deadline order while
// processors allow, dropping jobs whose hard slacked deadline has already
// expired.
func (p *QoPS) dispatch(e *sim.Engine) {
	now := e.Now()
	for len(p.queue) > 0 {
		head := p.queue[0]
		if now >= p.slackedDeadline(head) {
			p.queue = p.queue[1:]
			p.arr.reject(p.Recorder, head.job, "slacked deadline expired while queued")
			continue
		}
		if p.Cluster.FreeCount() < head.job.NumProc {
			return
		}
		p.queue = p.queue[1:]
		if _, err := p.Cluster.Start(e, head.job, head.estimate); err != nil {
			p.arr.reject(p.Recorder, head.job, "start failed: "+err.Error())
		}
	}
}
