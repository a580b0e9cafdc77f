package sched

import (
	"math"
	"slices"
	"sort"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// BackfillMode selects the reservation discipline.
type BackfillMode int

const (
	// EASYBackfill gives only the queue head a reservation; later jobs
	// may start out of order if (per estimates) they finish before the
	// head's reserved start (aggressive backfilling, Mu'alem & Feitelson).
	EASYBackfill BackfillMode = iota
	// ConservativeBackfill replans a reservation for every queued job on
	// each event; a job may jump ahead only into holes that delay nobody's
	// planned start.
	ConservativeBackfill
)

func (m BackfillMode) String() string {
	if m == EASYBackfill {
		return "EASY"
	}
	return "conservative"
}

// Backfill is a space-shared FCFS scheduler with backfilling, the
// mechanism the paper's §2 cites as the mainstream consumer of runtime
// estimates. Deadline admission stays lazy, as in EDF: a job is rejected
// at start time if its deadline has expired or is unreachable per its
// estimate.
type Backfill struct {
	Cluster  *cluster.SpaceShared
	Recorder *metrics.Recorder
	Mode     BackfillMode
	// DeadlineOrdered, when true, keeps the queue in earliest-deadline
	// order instead of arrival order — EDF with backfilling, combining
	// the paper's EDF baseline with the mainstream hole-filling
	// optimization.
	DeadlineOrdered bool

	queue []queued
	arr   arrival
}

// NewBackfill wires a backfilling policy to a space-shared cluster.
func NewBackfill(c *cluster.SpaceShared, rec *metrics.Recorder, mode BackfillMode) *Backfill {
	p := &Backfill{Cluster: c, Recorder: rec, Mode: mode}
	c.OnJobDone = func(e *sim.Engine, rj *cluster.RunningJob) {
		rec.Complete(rj.Job, rj.Finish, c.MinRuntime(rj))
		p.dispatch(e)
	}
	return p
}

// Name implements core.Policy.
func (p *Backfill) Name() string {
	if p.DeadlineOrdered {
		return "Backfill-" + p.Mode.String() + "-EDF"
	}
	return "Backfill-" + p.Mode.String()
}

// QueueLen returns the number of waiting jobs.
func (p *Backfill) QueueLen() int { return len(p.queue) }

// Submit implements core.Policy.
func (p *Backfill) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	if p.arr.begin(p.Recorder, job, p.Cluster.Len()) {
		at := len(p.queue)
		if p.DeadlineOrdered {
			// After every job of no later deadline: the queue stays
			// sorted, because jobs only leave it.
			at = sort.Search(at, func(i int) bool { return p.queue[i].job.AbsDeadline() > job.AbsDeadline() })
		}
		p.queue = slices.Insert(p.queue, at, queued{job: job, estimate: estimate})
		p.dispatch(e)
	}
	return p.arr.decision()
}

// dispatch starts every job the discipline allows to start now.
func (p *Backfill) dispatch(e *sim.Engine) {
	for p.startOne(e) {
	}
}

// startOne starts at most one job (the first the discipline permits) and
// reports whether it did; expired jobs encountered at start are rejected
// and count as progress so the loop continues.
func (p *Backfill) startOne(e *sim.Engine) bool {
	now := e.Now()
	if len(p.queue) == 0 {
		return false
	}
	prof := runningProfile(p.Cluster, now)
	// Plan reservations in queue order; find the first job allowed to
	// start now.
	var headReservedStart float64 = math.Inf(1)
	for i := 0; i < len(p.queue); i++ {
		q := p.queue[i]
		dur, ok := p.Cluster.BestPossibleRuntime(q.estimate, q.job.NumProc)
		if !ok {
			// Cannot ever run (guarded in Submit; defensive).
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			p.arr.reject(p.Recorder, q.job, "impossible processor request")
			return true
		}
		start := prof.EarliestSlot(now, dur, q.job.NumProc)
		canStartNow := start <= now+1e-9 && p.Cluster.FreeCount() >= q.job.NumProc
		switch p.Mode {
		case EASYBackfill:
			if i == 0 {
				if canStartNow {
					return p.startAt(e, i)
				}
				// Head reserves its slot; backfillers must not delay it.
				headReservedStart = start
				prof.Reserve(start, start+dur, q.job.NumProc)
				continue
			}
			if canStartNow {
				// Backfill only if finishing (per estimate) by the head's
				// reserved start, or using processors the head's
				// reservation leaves idle: the profile encodes that
				// reservation, and start is now exactly when the window
				// at now fits it.
				if now+dur <= headReservedStart+1e-9 || start == now {
					return p.startAt(e, i)
				}
			}
			// Not backfillable; it does not reserve under EASY.
		case ConservativeBackfill:
			if canStartNow && start == now {
				return p.startAt(e, i)
			}
			// Reserve its planned slot so later jobs cannot delay it.
			prof.Reserve(start, start+dur, q.job.NumProc)
		}
	}
	return false
}

// startAt removes queue[i] and starts it, applying lazy deadline
// admission. Returns true (progress) regardless of accept/reject.
func (p *Backfill) startAt(e *sim.Engine, i int) bool {
	now := e.Now()
	q := p.queue[i]
	p.queue = append(p.queue[:i], p.queue[i+1:]...)
	if now >= q.job.AbsDeadline() {
		p.arr.reject(p.Recorder, q.job, "deadline expired while queued")
		return true
	}
	if rt, ok := p.Cluster.RuntimeOn(q.estimate, q.job.NumProc); ok && now+rt > q.job.AbsDeadline() {
		p.arr.reject(p.Recorder, q.job, "deadline unreachable per runtime estimate")
		return true
	}
	if _, err := p.Cluster.Start(e, q.job, q.estimate); err != nil {
		p.arr.reject(p.Recorder, q.job, "start failed: "+err.Error())
	}
	return true
}

// runningProfile builds the availability profile implied by the running
// jobs' estimated completions. A job that has outlived its estimate is
// assumed to finish imminently, the same optimism real backfilling
// schedulers exhibit (they kill such jobs; our substrate lets them run, so
// misestimates surface as backfill collisions handled by canStartNow).
func runningProfile(c *cluster.SpaceShared, now float64) *Profile {
	prof := NewProfile(c.Len())
	for _, rj := range c.RunningJobs() {
		end := c.EstimatedFinish(rj)
		if end <= now {
			end = now + 1e-6
		}
		prof.Reserve(now, end, len(rj.NodeIDs))
	}
	return prof
}
