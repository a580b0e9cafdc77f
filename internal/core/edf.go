package core

import (
	"fmt"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// EDF is the non-preemptive Earliest Deadline First comparison strategy:
// space-shared (one job per processor), with a queue of incoming jobs
// ordered by deadline. Unlike Libra and LibraRisk it does not reject at
// submission; it waits for the requested number of processors for the
// earliest-deadline job, reselecting if an even earlier-deadline job
// arrives meanwhile, and rejects a selected job only just before execution
// if its deadline has expired or can no longer be met per its runtime
// estimate — the paper's deliberately more generous admission control.
type EDF struct {
	Cluster  *cluster.SpaceShared
	Recorder *metrics.Recorder

	// obsHooks carries the optional per-run tracer/metrics/audit
	// attachments (see SetObs); all nil by default.
	obsHooks

	queue edfQueue
	// arriving is the job Submit is placing and arrivalReason the
	// rejection a dispatch pass gave it during that call ("" for none).
	arriving      int
	arrivalReason string
}

// edfItem is one queued job with the estimate in force at submission.
type edfItem struct {
	job      workload.Job
	estimate float64
	seq      int // FIFO tiebreak for equal deadlines
	// submittedAt is the engine's processed-event count at enqueue time;
	// the difference at dispatch is the job's admission latency in events.
	submittedAt uint64
	resubmit    bool // re-queued after a node crash
}

// edfQueue is a hand-rolled binary min-heap over (AbsDeadline, seq).
// container/heap would box every edfItem through its Push(any) interface,
// allocating per enqueue on the hottest EDF path; the manual sift keeps
// items in the slice. The comparator is a total order (seq breaks every
// tie), so the pop sequence is identical to container/heap's.
type edfQueue []edfItem

func (q edfQueue) Len() int { return len(q) }

func edfLess(a, b edfItem) bool {
	if a.job.AbsDeadline() != b.job.AbsDeadline() {
		return a.job.AbsDeadline() < b.job.AbsDeadline()
	}
	return a.seq < b.seq
}

func (q *edfQueue) push(it edfItem) {
	s := append(*q, it)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !edfLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*q = s
}

func (q *edfQueue) popMin() edfItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*q = s
	i := 0
	for {
		min := i
		if l := 2*i + 1; l < n && edfLess(s[l], s[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && edfLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			return top
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// NewEDF wires an EDF policy to a space-shared cluster, including its
// failure-recovery hooks: a job killed by a node crash re-enters the queue
// with its remaining runtime and estimate but its original deadline, and a
// recovering node triggers a dispatch pass since capacity just returned.
func NewEDF(c *cluster.SpaceShared, rec *metrics.Recorder) *EDF {
	p := &EDF{Cluster: c, Recorder: rec}
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		rec.Complete(rj.Job, rj.Finish, c.MinRuntime(rj))
		p.dispatch(e)
	}
	c.OnJobKilled = func(e *sim.Engine, kj cluster.KilledJob) {
		rec.Killed(kj.Job.Job)
		job := kj.Job.Job
		job.Runtime = kj.RemainingRuntime
		p.enqueue(e, edfItem{job: job, estimate: kj.RemainingEstimate, seq: job.ID, resubmit: true})
		// The gang's surviving nodes were just released; someone queued
		// (possibly the victim itself) may be able to start.
		p.dispatch(e)
	}
	c.OnNodeUp = func(e *sim.Engine, id int) {
		p.dispatch(e)
	}
	return p
}

// Name implements Policy.
func (p *EDF) Name() string { return "EDF" }

// QueueLen returns the number of jobs waiting for processors.
func (p *EDF) QueueLen() int { return p.queue.Len() }

// Submit implements Policy: enqueue and try to dispatch. The job is
// rejected by this call only when the dispatch pass it triggers selects it
// and its deadline cannot be met; left queued, it counts as accepted.
func (p *EDF) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	p.Recorder.Submitted(job)
	p.arriveObs(e.Now(), job)
	p.arriving, p.arrivalReason = job.ID, ""
	if job.NumProc > p.Cluster.Len() {
		p.beginObs(e.Now(), job, estimate, false)
		p.reject(e.Now(), job, fmt.Sprintf("needs %d processors, cluster has %d", job.NumProc, p.Cluster.Len()))
	} else {
		p.enqueue(e, edfItem{job: job, estimate: estimate, seq: job.ID})
		p.dispatch(e)
	}
	return p.arrivalReason == "", p.arrivalReason
}

// enqueue pushes an item stamped with the engine's event count and
// samples the queue-depth metrics.
func (p *EDF) enqueue(e *sim.Engine, it edfItem) {
	it.submittedAt = e.Processed()
	p.queue.push(it)
	if p.Sim != nil {
		depth := float64(p.queue.Len())
		p.Sim.QueueDepth.Observe(depth)
		if depth > p.Sim.MaxQueueDepth.Value() {
			p.Sim.MaxQueueDepth.Set(depth)
		}
	}
}

// reject records a rejection in both the metrics recorder and the
// observability hooks, keeping the audit decision count exactly equal to
// the recorded rejection count, and notes it for Submit when it hits the
// arriving job.
func (p *EDF) reject(now float64, job workload.Job, reason string) {
	p.Recorder.Reject(job, reason)
	p.rejectObs(now, job, reason)
	if job.ID == p.arriving {
		p.arrivalReason = reason
	}
}

// Reset empties the wait queue so the policy can drive a fresh run on a
// reset cluster, keeping the queue's storage.
func (p *EDF) Reset() { p.queue = p.queue[:0] }

// dispatch starts queued jobs in deadline order while the head job's
// processors are available; it blocks (no backfilling) on the first job
// that must keep waiting.
func (p *EDF) dispatch(e *sim.Engine) {
	now := e.Now()
	for p.queue.Len() > 0 {
		head := p.queue[0]
		if p.Cluster.FreeCount() < head.job.NumProc {
			// The selected job waits for processors; nothing behind it may
			// overtake (non-preemptive, no backfill). Its admission check
			// happens when it is about to execute.
			return
		}
		p.queue.popMin()
		// Admission just prior to execution: this is EDF's decision point,
		// so the audit record opens here, not at enqueue.
		p.beginObs(now, head.job, head.estimate, head.resubmit)
		if now >= head.job.AbsDeadline() {
			p.reject(now, head.job, "deadline expired while queued")
			continue
		}
		rt, ok := p.Cluster.RuntimeOn(head.estimate, head.job.NumProc)
		if !ok {
			// FreeCount said yes; this cannot fail, but stay safe.
			p.reject(now, head.job, "processors vanished before start")
			continue
		}
		if now+rt > head.job.AbsDeadline() {
			p.reject(now, head.job, "deadline unreachable per runtime estimate")
			continue
		}
		rj, err := p.Cluster.Start(e, head.job, head.estimate)
		if err != nil {
			p.reject(now, head.job, "start failed: "+err.Error())
			continue
		}
		wait := float64(e.Processed() - head.submittedAt)
		if p.Sim != nil {
			p.Sim.AdmitLatencyEvents.Observe(wait)
		}
		p.acceptObs(now, head.job, rj.NodeIDs, wait)
	}
}
