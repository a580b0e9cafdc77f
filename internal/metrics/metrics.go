// Package metrics records per-job outcomes and derives the paper's two
// evaluation metrics: the percentage of submitted jobs completed within
// their deadlines, and the average slowdown over deadline-fulfilled jobs.
package metrics

import (
	"fmt"
	"slices"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// Outcome classifies what became of a submitted job.
type Outcome int

const (
	// Rejected by admission control (immediately or, for EDF, at
	// selection time).
	Rejected Outcome = iota
	// Met: completed within its deadline.
	Met
	// Missed: completed, but after its deadline.
	Missed
	// Unfinished: still in the system when the simulation ended. Treated
	// as not fulfilled.
	Unfinished
)

func (o Outcome) String() string {
	switch o {
	case Rejected:
		return "rejected"
	case Met:
		return "met"
	case Missed:
		return "missed"
	case Unfinished:
		return "unfinished"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// JobResult is the final record for one submitted job.
type JobResult struct {
	JobID    int
	Class    workload.Class
	NumProc  int
	Outcome  Outcome
	Submit   float64
	Finish   float64 // completion time; 0 for rejected jobs
	Response float64 // Finish - Submit for completed jobs
	Delay    float64 // eq. 3: response beyond the deadline, 0 if met
	Slowdown float64 // response / minimum runtime, for completed jobs
	Reason   string  // rejection reason, if any
}

// pendingSlot is one entry of the Recorder's dense pending table.
type pendingSlot struct {
	job     workload.Job
	present bool
}

// Recorder accumulates job results during a simulation. It is not
// goroutine-safe; each simulation owns one.
//
// Every finalized result (rejection, completion or flush) is folded into
// running aggregates as it is recorded, so Summarize, Pending and
// ConservationError cost O(1) and need no history. A recorder from
// NewRecorder also keeps every result for Results; one from
// NewStreamingRecorder keeps none, and its memory is bounded by the jobs
// still pending.
//
// Pending jobs live in a dense slice indexed by (ID - denseBase) rather
// than a map: workload IDs are consecutive in practice, so the hot
// Submitted/Complete path becomes a slice index instead of a map operation
// and allocates nothing once the table has grown. IDs far outside the dense
// window (more than ~8x the submitted count) spill to an overflow map so
// adversarial ID patterns stay bounded in memory.
type Recorder struct {
	// keep retains every finalized result in results.
	keep    bool
	results []JobResult
	// pendingDense holds jobs without a final outcome, indexed by
	// ID - denseBase; haveBase latches denseBase on the first submission.
	// Every slot below head is finalized. A streaming recorder slides
	// denseBase past that prefix, so the table spans the pending window
	// rather than every ID seen.
	pendingDense    []pendingSlot
	denseBase       int
	head            int
	haveBase        bool
	pendingOverflow map[int]workload.Job
	pendingCount    int
	// submitted counts Submitted calls independently of the finalized
	// results, so the conservation invariant (submitted = finalized +
	// pending) can detect double-finalization or lost jobs.
	submitted int
	// kills counts node-crash job kills. A killed job stays pending — the
	// policy resubmits it and it still ends as exactly one final result.
	kills int
	// sum holds the counts of every finalized result (its Submitted field
	// is the finalized count) and the accumulators below its means, all in
	// recording order.
	sum                 Summary
	sdMet, sdAll, delay sim.Welford
	// Observer, if set, is invoked with every finalized result (rejection
	// or completion) as it is recorded. Online runtime predictors hook it
	// to learn from completions.
	Observer func(JobResult)
}

// NewRecorder returns an empty recorder that keeps every result.
func NewRecorder() *Recorder {
	return &Recorder{keep: true}
}

// NewStreamingRecorder returns an empty recorder that keeps no finalized
// results: Results is always empty, everything else works as for
// NewRecorder. A long-lived server records through one, so its memory
// stays bounded by the jobs in flight.
func NewStreamingRecorder() *Recorder {
	return &Recorder{}
}

// Reset returns the recorder to its constructor state in place, keeping
// the grown result and pending storage so a reused recorder records its
// next run without touching the heap. The Observer is cleared; reinstall it
// after Reset if the next run needs one.
func (r *Recorder) Reset() {
	r.results = r.results[:0]
	r.pendingDense = r.pendingDense[:0]
	clear(r.pendingOverflow)
	r.denseBase, r.head, r.haveBase = 0, 0, false
	r.pendingCount, r.submitted, r.kills = 0, 0, 0
	r.sum = Summary{}
	r.sdMet, r.sdAll, r.delay = sim.Welford{}, sim.Welford{}, sim.Welford{}
	r.Observer = nil
}

// denseLimit bounds how far past the submitted count the dense table may
// grow; beyond it an ID spills to the overflow map.
func (r *Recorder) denseLimit() int { return 8*(r.submitted+1) + 1024 }

// Submitted registers a job entering the system (before any admission
// decision). Every submitted job must later be rejected, completed, or
// flushed as unfinished.
func (r *Recorder) Submitted(j workload.Job) {
	r.submitted++
	if !r.haveBase {
		r.denseBase, r.haveBase = j.ID, true
	}
	if idx := j.ID - r.denseBase; idx >= 0 && idx < r.denseLimit() {
		for len(r.pendingDense) <= idx {
			r.pendingDense = append(r.pendingDense, pendingSlot{})
		}
		slot := &r.pendingDense[idx]
		if !slot.present {
			r.pendingCount++
		}
		slot.job, slot.present = j, true
		r.head = min(r.head, idx)
		return
	}
	if r.pendingOverflow == nil {
		r.pendingOverflow = make(map[int]workload.Job)
	}
	if _, ok := r.pendingOverflow[j.ID]; !ok {
		r.pendingCount++
	}
	r.pendingOverflow[j.ID] = j
}

// clearPending finalizes a job's pending entry, wherever it lives. The
// dense table is checked first; an ID stored in the overflow map before the
// dense window grew over it is still found there.
func (r *Recorder) clearPending(id int) {
	if r.haveBase {
		if idx := id - r.denseBase; idx >= 0 && idx < len(r.pendingDense) && r.pendingDense[idx].present {
			r.pendingDense[idx].present = false
			r.pendingCount--
			if !r.keep {
				r.slide()
			}
			return
		}
	}
	if _, ok := r.pendingOverflow[id]; ok {
		delete(r.pendingOverflow, id)
		r.pendingCount--
	}
}

// slide moves head past the finalized prefix of the dense table and, once
// that prefix is at least half the table, drops it by rebasing. head only
// moves forward between rebases and a rebase copies fewer slots than it
// drops, so the cost is amortised O(1) per finalization. Only a streaming
// recorder slides: Flush visits the dense table before the overflow map,
// and a kept result list must stay in the order it always had.
func (r *Recorder) slide() {
	for r.head < len(r.pendingDense) && !r.pendingDense[r.head].present {
		r.head++
	}
	if r.head == 0 || 2*r.head < len(r.pendingDense) {
		return
	}
	n := copy(r.pendingDense, r.pendingDense[r.head:])
	r.pendingDense = r.pendingDense[:n]
	r.denseBase += r.head
	r.head = 0
}

// Killed records that a running job was torn down by a node crash. The job
// remains pending: the owning policy resubmits it, and its eventual
// rejection, completion, or flush is its single final outcome.
func (r *Recorder) Killed(j workload.Job) {
	r.kills++
}

// Kills returns the number of node-crash job kills recorded.
func (r *Recorder) Kills() int { return r.kills }

// ConservationError checks the job-conservation invariant: every Submitted
// job is either finalized (one result) or still pending — no job lost, none
// finalized twice. Returns nil while the books balance.
func (r *Recorder) ConservationError() error {
	if got := r.sum.Submitted + r.pendingCount; got != r.submitted {
		return fmt.Errorf("metrics: %d submitted, but %d finalized + %d pending = %d",
			r.submitted, r.sum.Submitted, r.pendingCount, got)
	}
	return nil
}

// finalize folds one final result into the aggregates and, when the
// recorder keeps results, appends it.
func (r *Recorder) finalize(res JobResult) {
	s := &r.sum
	s.Submitted++
	switch res.Class {
	case workload.HighUrgency:
		s.SubmittedHigh++
	case workload.LowUrgency:
		s.SubmittedLow++
	}
	switch res.Outcome {
	case Rejected:
		s.Rejected++
	case Unfinished:
		s.Unfinished++
	case Met:
		s.Completed++
		s.Met++
		r.sdMet.Add(res.Slowdown)
		r.sdAll.Add(res.Slowdown)
		switch res.Class {
		case workload.HighUrgency:
			s.MetHigh++
		case workload.LowUrgency:
			s.MetLow++
		}
	case Missed:
		s.Completed++
		s.Missed++
		r.sdAll.Add(res.Slowdown)
		r.delay.Add(res.Delay)
	}
	if r.keep {
		r.results = append(r.results, res)
	}
}

// Reject records an admission-control rejection.
func (r *Recorder) Reject(j workload.Job, reason string) {
	r.clearPending(j.ID)
	res := JobResult{
		JobID: j.ID, Class: j.Class, NumProc: j.NumProc,
		Outcome: Rejected, Submit: j.Submit, Reason: reason,
	}
	r.finalize(res)
	if r.Observer != nil {
		r.Observer(res)
	}
}

// Complete records a job completion. minRuntime is the job's dedicated
// runtime on the slowest node it occupied (the slowdown denominator).
func (r *Recorder) Complete(j workload.Job, finish, minRuntime float64) {
	r.clearPending(j.ID)
	res := JobResult{
		JobID: j.ID, Class: j.Class, NumProc: j.NumProc,
		Submit: j.Submit, Finish: finish,
		Response: finish - j.Submit,
	}
	if minRuntime > 0 {
		res.Slowdown = res.Response / minRuntime
	}
	if finish <= j.AbsDeadline()+1e-6 {
		res.Outcome = Met
	} else {
		res.Outcome = Missed
		res.Delay = res.Response - j.Deadline
	}
	r.finalize(res)
	if r.Observer != nil {
		r.Observer(res)
	}
}

// Flush marks every still-pending job as unfinished; call once when the
// simulation ends. The order is deterministic: ascending job ID within the
// dense table, then ascending ID across the overflow map.
func (r *Recorder) Flush() {
	for i := range r.pendingDense {
		slot := &r.pendingDense[i]
		if !slot.present {
			continue
		}
		slot.present = false
		j := slot.job
		r.finalize(JobResult{
			JobID: j.ID, Class: j.Class, NumProc: j.NumProc,
			Outcome: Unfinished, Submit: j.Submit,
		})
	}
	if len(r.pendingOverflow) > 0 {
		ids := make([]int, 0, len(r.pendingOverflow))
		for id := range r.pendingOverflow {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			j := r.pendingOverflow[id]
			r.finalize(JobResult{
				JobID: j.ID, Class: j.Class, NumProc: j.NumProc,
				Outcome: Unfinished, Submit: j.Submit,
			})
		}
		clear(r.pendingOverflow)
	}
	r.pendingCount = 0
}

// Results returns the accumulated records (unsorted); empty for a
// streaming recorder.
func (r *Recorder) Results() []JobResult { return r.results }

// Pending returns the number of jobs without a final outcome yet.
func (r *Recorder) Pending() int { return r.pendingCount }

// Summary is the aggregate view of one simulation run.
type Summary struct {
	Submitted  int
	Rejected   int
	Completed  int
	Met        int
	Missed     int
	Unfinished int
	// Killed counts node-crash teardowns of running jobs. Kills are events,
	// not final outcomes — a killed job is resubmitted and still finishes
	// as exactly one of the outcomes above — so Killed is not part of the
	// Submitted decomposition.
	Killed int

	// PctFulfilled is the paper's primary metric: jobs completed within
	// deadline as a percentage of all submitted jobs.
	PctFulfilled float64
	// AvgSlowdownMet is the paper's secondary metric: mean slowdown over
	// deadline-fulfilled jobs only.
	AvgSlowdownMet float64
	// AvgSlowdownCompleted covers all completed jobs, for diagnostics.
	AvgSlowdownCompleted float64
	// MeanDelayMissed is the mean eq.-3 delay over deadline-missed jobs.
	MeanDelayMissed float64
	// AcceptanceRate is accepted (completed or unfinished) / submitted.
	AcceptanceRate float64

	// MetHigh and MetLow split fulfilled jobs by urgency class.
	MetHigh, MetLow             int
	SubmittedHigh, SubmittedLow int
}

// Summarize computes the aggregate metrics. Unfinished jobs count as
// submitted but not fulfilled, mirroring the paper's metric definition.
func (r *Recorder) Summarize() Summary {
	s := r.sum
	s.Killed = r.kills
	if s.Submitted > 0 {
		s.PctFulfilled = 100 * float64(s.Met) / float64(s.Submitted)
		s.AcceptanceRate = float64(s.Completed+s.Unfinished) / float64(s.Submitted)
	}
	s.AvgSlowdownMet = r.sdMet.Mean()
	s.AvgSlowdownCompleted = r.sdAll.Mean()
	s.MeanDelayMissed = r.delay.Mean()
	return s
}
