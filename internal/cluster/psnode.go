package cluster

import (
	"fmt"
	"math"
	"slices"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// RunningJob is a job instance admitted to a cluster. It is created by the
// engines' Submit/Start methods and handed back through completion
// callbacks. A time-shared cluster recycles its storage once the job's
// done or killed handler returns, so no pointer to one may be kept past
// that (copy the fields instead).
type RunningJob struct {
	Job workload.Job
	// Estimate is the runtime estimate in effect when the job was
	// admitted, in reference seconds. The scheduler never sees
	// Job.Runtime.
	Estimate float64
	Start    float64
	Finish   float64 // set when the last slice completes
	NodeIDs  []int

	remainingSlices int
	done            bool
}

// Delay returns the paper's eq. (3): the amount by which the job's
// response time exceeded its deadline, or 0 if the deadline was met. Only
// meaningful after completion.
func (rj *RunningJob) Delay() float64 {
	return math.Max(0, (rj.Finish-rj.Job.Submit)-rj.Job.Deadline)
}

// DeadlineMet reports whether the job finished within its hard deadline.
func (rj *RunningJob) DeadlineMet() bool {
	return rj.done && rj.Finish <= rj.Job.AbsDeadline()+epsTime
}

// Slowdown returns response time divided by the minimum runtime the job
// needed on the slowest node it occupied.
func (rj *RunningJob) Slowdown(minRuntime float64) float64 {
	if minRuntime <= 0 {
		return 0
	}
	return (rj.Finish - rj.Job.Submit) / minRuntime
}

// slice is the portion of a running job hosted on one node. Work amounts
// are in node-seconds (dedicated seconds at this node's rating).
type slice struct {
	job          *RunningJob
	realWork     float64 // remaining real work; drives completion
	believedWork float64 // remaining work per the admitted estimate
	rate         float64 // current service rate in node-seconds/second
}

// PSNode is a time-shared node running deadline-proportional processor
// sharing. Between scheduler events each active slice receives a constant
// rate derived from its share weight (eq. 1); weights are re-evaluated on
// every arrival, completion, estimate exhaustion and deadline crossing.
type PSNode struct {
	id     int
	rating float64
	cfg    Config

	slices []*slice
	lastT  float64
	update *sim.Event

	// down marks a crashed node: it holds no slices and refuses new ones
	// until it recovers (see TimeShared.SetNodeDown).
	down bool
	// speed is the node's current effective-rate multiplier: 1 nominal,
	// in (0,1) while a transient straggler condition degrades it. Rates
	// derived by recompute are scaled by it, so a speed change is a
	// work-conserving re-timing of every in-flight slice.
	speed float64

	// version counts state mutations: it is bumped whenever advance
	// accrues progress, a slice is added, a completed slice is retired,
	// SetSpeed changes the speed, markDown drops the slices, markUp
	// revives the node, or removeJobSlice drops a killed job's slice.
	// Consumers key caches of derived quantities (fluid predictions, risk
	// aggregates, the risk summary below) on it; an unchanged version
	// guarantees the slice set, remaining-work values, rates and speed are
	// all unchanged since last read. reset zeroes it, so reset must also
	// drop every cache the node itself keys on it.
	version uint64

	// risk is ProvablyRisky's summary of the slices, valid while its
	// version matches; proof is the floor that decided its last call
	// (see ProvenBy).
	risk  riskSummary
	proof RiskFloor

	// busyIntegral accumulates ∫Σrates dt — the exact node-seconds of
	// work served, for utilization accounting.
	busyIntegral float64

	// weightScratch is reused by recompute so re-deriving rates on every
	// arrival/completion/deadline event does not allocate.
	weightScratch []float64

	// Predictor scratch buffers, reused across PredictDelaysScratch calls
	// so the admission hot path runs allocation-free in steady state.
	predItems []fluidItem
	predOut   []PredictedDelay
	// predSteps is the fluid step count of the last prediction (see
	// PredictSteps).
	predSteps int

	// doneScratch is reused by retireCompleted so completion bursts do not
	// allocate.
	doneScratch []*slice

	// onSliceDone is installed by the owning TimeShared cluster.
	onSliceDone func(e *sim.Engine, sl *slice)

	// updateH is the bound-once method value for onUpdate: evaluating
	// n.onUpdate at each reschedule would allocate a fresh closure per
	// event on the hot path.
	updateH sim.Handler
}

// ID returns the node's index within its cluster.
func (n *PSNode) ID() int { return n.id }

// NumSlices returns the number of active slices.
func (n *PSNode) NumSlices() int { return len(n.slices) }

// Down reports whether the node is currently crashed.
func (n *PSNode) Down() bool { return n.down }

// Speed returns the node's current effective-rate multiplier (1 nominal).
func (n *PSNode) Speed() float64 { return n.speed }

// SetSpeed re-times the node at a new effective-rate multiplier: progress
// up to now is accrued at the old rates, then rates are re-derived scaled
// by factor and the next change event is rescheduled. factor must be
// positive; 1 restores nominal speed.
func (n *PSNode) SetSpeed(e *sim.Engine, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("cluster: node %d speed factor %g, want > 0", n.id, factor))
	}
	if factor == n.speed {
		return
	}
	n.advance(e.Now())
	n.speed = factor
	n.version++
	n.recompute(e.Now())
	n.reschedule(e)
}

// Version returns the node's state-mutation counter. Two reads returning
// the same value bracket a window in which no slice arrived, completed,
// or accrued progress, so any cache keyed on it is still valid.
func (n *PSNode) Version() uint64 { return n.version }

// scratchWeights returns a reusable []float64 of length k, growing the
// node's scratch buffer on demand.
func (n *PSNode) scratchWeights(k int) []float64 {
	if cap(n.weightScratch) < k {
		n.weightScratch = make([]float64, k)
	}
	return n.weightScratch[:k]
}

// weightAt computes the proportional-share weight of a slice with the
// given believed remaining work and remaining deadline, applying the
// conventions in Config.
func (n *PSNode) weightAt(believed, remDeadline float64) float64 {
	switch {
	case believed <= epsWork:
		// Overrun: the allocator believes the job is about to exit and
		// grants only a residual share.
		return n.cfg.OverrunFloorWeight
	case remDeadline <= epsTime:
		// Past deadline with believed work left: the share formula
		// diverges; demand a full processor.
		return n.cfg.MaxWeight
	default:
		// math.Min(w, MaxWeight) as a plain comparison, exact for the
		// positive w here: this runs per slice per predictor step, where
		// the out-of-line math.Min call showed in profiles.
		w := believed / remDeadline
		if w > n.cfg.MaxWeight {
			return n.cfg.MaxWeight
		}
		return w
	}
}

// advance accrues progress from lastT to now at the current rates.
func (n *PSNode) advance(now float64) {
	dt := now - n.lastT
	if dt > 0 {
		for _, sl := range n.slices {
			w := sl.rate * dt
			sl.realWork -= w
			sl.believedWork -= w
			n.busyIntegral += w
		}
		n.version++
	}
	n.lastT = now
}

// ServedWork returns the exact node-seconds of work this node has served
// up to its last accrual point.
func (n *PSNode) ServedWork() float64 { return n.busyIntegral }

// recompute re-derives weights and rates for all slices at time now.
func (n *PSNode) recompute(now float64) {
	var total float64
	weights := n.scratchWeights(len(n.slices))
	for i, sl := range n.slices {
		w := n.weightAt(sl.believedWork, sl.job.Job.AbsDeadline()-now)
		weights[i] = w
		total += w
	}
	for i, sl := range n.slices {
		switch {
		case total <= 0:
			sl.rate = 0
		case n.cfg.WorkConserving:
			// Redistribute all capacity proportionally: Σ rates = 1.
			sl.rate = weights[i] / total
		case total > 1:
			// Oversubscribed: scale guarantees down proportionally.
			sl.rate = weights[i] / total
		default:
			// Strict shares; the node idles with the rest.
			sl.rate = weights[i]
		}
	}
	if n.speed != 1 {
		// Degraded node: every slice advances at the straggler-scaled
		// rate. Guarded so the nominal path multiplies by nothing and
		// stays bit-identical to the pre-fault model.
		for _, sl := range n.slices {
			sl.rate *= n.speed
		}
	}
}

// nextChange returns the delay until the earliest of: a slice's real
// completion, a slice's believed-work exhaustion (weight regime change), or
// a slice's deadline crossing (weight regime change). Returns +Inf when
// nothing is pending.
func (n *PSNode) nextChange(now float64) float64 {
	next := math.Inf(1)
	for _, sl := range n.slices {
		if sl.rate > 0 {
			if t := sl.realWork / sl.rate; t < next {
				next = t
			}
			if sl.believedWork > epsWork {
				if t := sl.believedWork / sl.rate; t < next {
					next = t
				}
			}
		}
		if rd := sl.job.Job.AbsDeadline() - now; rd > epsTime && rd < next && sl.believedWork > epsWork {
			next = rd
		}
	}
	return next
}

// reschedule cancels any pending update event and schedules the next one.
func (n *PSNode) reschedule(e *sim.Engine) {
	if n.update != nil {
		n.update.Cancel()
		n.update = nil
	}
	next := n.nextChange(e.Now())
	if math.IsInf(next, 1) {
		return
	}
	if next < 1e-6 {
		next = 1e-6 // guarantee forward progress despite float noise
	}
	if n.updateH == nil {
		n.updateH = n.onUpdate
	}
	n.update = e.At(e.Now()+next, sim.PriorityCompletion, n.updateH)
}

// onUpdate is the node's event handler: accrue progress, retire completed
// slices, re-derive rates, schedule the next change.
func (n *PSNode) onUpdate(e *sim.Engine) {
	n.update = nil
	n.advance(e.Now())
	n.retireCompleted(e)
	n.recompute(e.Now())
	n.reschedule(e)
}

func (n *PSNode) retireCompleted(e *sim.Engine) {
	kept := n.slices[:0]
	done := n.doneScratch[:0]
	for _, sl := range n.slices {
		if sl.realWork <= epsWork {
			done = append(done, sl)
		} else {
			kept = append(kept, sl)
		}
	}
	n.slices = kept
	n.doneScratch = done
	if len(done) > 0 {
		n.version++
	}
	for _, sl := range done {
		n.onSliceDone(e, sl)
	}
}

// reset returns the node to its freshly constructed state, keeping every
// scratch buffer. The pending update-event reference is dropped without
// Cancel: the caller (TimeShared.Reset) guarantees the engine was reset
// first, which already reclaimed the event.
func (n *PSNode) reset() {
	for i := range n.slices {
		n.slices[i] = nil
	}
	n.slices = n.slices[:0]
	for i := range n.doneScratch {
		n.doneScratch[i] = nil
	}
	n.doneScratch = n.doneScratch[:0]
	n.lastT = 0
	n.update = nil
	n.down = false
	n.speed = 1
	n.version = 0
	n.risk = riskSummary{}
	n.busyIntegral = 0
}

// addSlice places a new slice on the node and re-derives rates.
func (n *PSNode) addSlice(e *sim.Engine, sl *slice) {
	n.advance(e.Now())
	n.slices = append(n.slices, sl)
	n.version++
	n.recompute(e.Now())
	n.reschedule(e)
}

// projectedBelieved returns a slice's believed remaining work at time now
// without mutating node state (progress since the last accrual point is
// applied virtually).
func (n *PSNode) projectedBelieved(sl *slice, now float64) float64 {
	return sl.believedWork - sl.rate*(now-n.lastT)
}

// LibraShare returns the node's total processor-time share as Libra's
// admission test computes it (eq. 2): the sum over active slices of
// believed remaining work / remaining deadline. Slices whose believed work
// is exhausted contribute zero — the allocator thinks they are about to
// exit, which is precisely how inaccurate (under-)estimates fool Libra. A
// slice past its deadline with believed work left contributes +Inf,
// rendering the node unsuitable.
func (n *PSNode) LibraShare(now float64) float64 {
	var total float64
	for _, sl := range n.slices {
		total += libraShare(n.projectedBelieved(sl, now), sl.job.Job.AbsDeadline()-now)
	}
	return total
}

// LibraShareWith returns LibraShare plus the share a candidate job slice
// (work in node-seconds, absolute deadline) would add.
func (n *PSNode) LibraShareWith(now, work, absDeadline float64) float64 {
	return n.LibraShare(now) + libraShare(work, absDeadline-now)
}

// LibraShareWithLimit is LibraShareWith with an early exit: because every
// term of the share sum is non-negative, the accumulation can stop as soon
// as the running total exceeds limit — the node is already unsuitable and
// the exact overshoot is irrelevant. When the returned ok is true the
// share is the exact same float64 LibraShareWith computes (identical
// accumulation order); when false the share is a partial sum > limit.
func (n *PSNode) LibraShareWithLimit(now, work, absDeadline, limit float64) (share float64, ok bool) {
	var total float64
	for _, sl := range n.slices {
		total += libraShare(n.projectedBelieved(sl, now), sl.job.Job.AbsDeadline()-now)
		if total > limit {
			return total, false
		}
	}
	total += libraShare(work, absDeadline-now)
	return total, total <= limit
}

// PredictionStable reports whether the node's no-candidate fluid
// prediction is invariant in absolute time until the next version bump.
// This holds for an empty node (no predictions at all) and for a
// work-conserving node running a single slice with believed work left: a
// lone slice is served at rate 1 regardless of its weight, so its
// predicted finish lastT+believedWork does not depend on when the
// predictor looks, and every regime change (believed-work exhaustion,
// deadline crossing, real completion) is itself a node event that bumps
// the version. Multi-slice predictions re-derive weights at the
// evaluation instant and are therefore time-dependent.
func (n *PSNode) PredictionStable() bool {
	switch len(n.slices) {
	case 0:
		return true
	case 1:
		return n.cfg.WorkConserving && n.slices[0].believedWork > epsWork
	default:
		return false
	}
}

// riskSummary is what ProvablyRisky reads of a node's slices, derived
// from accrued state (believedWork and rate, not their projection) at one
// version. Between mutations no slice arrives or leaves, rates hold and
// believed work only falls, at most at the node's speed, so each field
// bounds the predictor's view at any now ≥ lastT until the version moves.
//
// PredictDelaysWithin folds no earliest-finish floor before its first
// step: this summary folds it, for the residents that cannot finish by
// their deadline and for the candidate, in O(1) while the version holds, where the
// prediction would need an O(slices) pass that projects every slice's
// believed work. It decides about nine in ten of serve_scan's busy nodes,
// so exit (5) stays in front of the simulation.
type riskSummary struct {
	version uint64
	valid   bool
	// exhausted is the earliest deadline among exhausted slices (believed
	// work ≤ epsWork), +Inf when none; backlog is Σ max(0, believedWork);
	// last is the latest deadline.
	exhausted, backlog, last float64
	// doomed is floor (a): the largest earliest-finish value at lastT
	// over the working slices (believed work > epsWork), at least 1.
	doomed float64
	// Floor (c) reads, over the working slices with r = d − lastT >
	// epsTime, the share A = Σ min(b/r, MaxWeight) and its drift
	// B = Σ rate/r; urgent is the earliest working deadline (+Inf when
	// none) and urgentWork, urgentRate that slice's believed work and
	// rate; for now − lastT ≤ steady every working slice still holds
	// believed work above epsWork in the predictor's projection.
	share, drift                   float64
	urgent, urgentWork, urgentRate float64
	steady                         float64
}

// RiskFloor names the floor under the largest eq. (4) value with which
// ProvablyRisky proved a node risky.
type RiskFloor uint8

const (
	NotProven      RiskFloor = iota // ProvablyRisky returned false
	FloorOverdue                    // an overdue exhausted slice
	FloorDoomed                     // (a) a resident that cannot finish by its deadline
	FloorCandidate                  // (b) the candidate's own earliest finish
	FloorCrossing                   // (c) the first deadline crossing of an overloaded node
)

// ProvenBy reports which floor decided the node's last ProvablyRisky
// call: NotProven when it returned false.
func (n *PSNode) ProvenBy() RiskFloor { return n.proof }

// ProvablyRisky reports, without simulating, that the eq. (4) values
// PredictDelaysScratch(now, cand) would yield have a population σ above
// limit, so the node is unsuitable for cand. It is O(1) while the node's
// version is unchanged.
//
// It bounds the smallest value from above by lo and the largest from
// below by hi, and stops as PredictDelaysWithin does, once
// hi − lo > 2·limit·√(2n) + 1e-12·hi for the n items (the slices and the
// candidate); see there for why that proves σ > limit. On a
// work-conserving node the items share all of the node's speed, so every
// item, the candidate included, finishes by the horizon
// H = now + (backlog + candidate work)/speed, plus n·epsTime for the
// predictor's step floor and 1e-9·|H| for rounding. That caps the value
// of the item with the latest deadline, resident or candidate, at lo.
// Four floors each give a candidate for hi, tried in this order:
//
//   - An overdue exhausted slice. A slice whose believed work is
//     exhausted and whose deadline d has passed is retired by the
//     predictor at now whatever the candidate, with value
//     DeadlineDelay(now−d, d−now); the earliest such d gives the largest.
//   - (a) A doomed resident. No item is served faster than the node's
//     speed (see PredictDelaysWithin), so a slice holding believed work b
//     at lastT cannot retire before f = lastT + (b−epsWork)/speed, less
//     1e-9·|f|: its projection at now falls by at most speed·(now−lastT),
//     and from there it needs (b(now)−epsWork)/speed more. Its value is
//     at least DeadlineDelay(f−d, d−now), which is at least
//     DeadlineDelay(f−d, d−lastT) because the value rises as the
//     remaining deadline shrinks; the summary keeps the largest of these,
//     valid for every now in the version.
//   - (b) The candidate's own earliest finish, the same floor at now
//     (earliestValue).
//   - (c) The first deadline crossing of an overloaded node. Let W be the
//     predictor's total weight at now over the kept items, those with
//     believed work above epsWork, and let item j have the earliest
//     deadline d_j among them, r_j = d_j − now. If W > speed and no kept
//     item is overdue (r > epsTime for each), every kept weight is
//     min(b/r, MaxWeight) ≤ b/r, so item i would need
//     b_i·W/(speed·w_i) ≥ r_i·W/speed > r_i ≥ r_j to finish: the first
//     step ends at the crossing d_j, with item j holding at least
//     b_j − speed·min(b_j, MaxWeight·r_j)/W, and from there the earliest
//     finish floors its value. W needs no item build: over the working
//     slices, W(now) ≥ A − (now−lastT)·B (see riskSummary), since
//     b(now)/r(now) ≥ (b − rate·(now−lastT))/r(lastT) and min(·, MaxWeight)
//     loses no more than its argument. That holds, and the kept set is
//     the working slices plus a candidate with work, only while no working
//     slice can have exhausted (now − lastT ≤ steady, a step of
//     (b − 2·epsWork)(1 − 1e-9)/rate that leaves the projection above
//     epsWork after rounding) and none is overdue (urgent − now >
//     epsTime, the predictor's own test). An overdue candidate with work
//     turns the floor off too. W is lowered by 1e-9 of the terms summed
//     and j's remaining work by 1e-12·b_j, far above their rounding.
//
// False means only "not proven". Strict shares (the node may idle), a nil
// candidate and now before the node's last accrual point never prove
// anything.
func (n *PSNode) ProvablyRisky(now float64, cand *Candidate, limit float64) bool {
	n.proof = NotProven
	if cand == nil || !n.cfg.WorkConserving || now < n.lastT || len(n.slices) == 0 {
		return false
	}
	if !n.risk.valid || n.risk.version != n.version {
		n.summarizeRisk()
	}
	s := &n.risk
	c := fluidItem{believed: clampNonNegative(n.WorkToNodeSeconds(cand.RefWork)), absDeadline: cand.AbsDeadline}
	items := float64(len(n.slices) + 1)
	last := s.last
	if c.absDeadline > last {
		last = c.absDeadline
	}
	h := now + (s.backlog+c.believed)/n.speed + items*epsTime
	h += 1e-9 * math.Abs(h)
	lo := DeadlineDelay(h-last, last-now)
	spread := 2 * limit * math.Sqrt(2*items)
	proves := func(hi float64) bool { return hi-lo > spread+1e-12*hi }
	switch {
	case s.exhausted < now && proves(DeadlineDelay(now-s.exhausted, s.exhausted-now)):
		n.proof = FloorOverdue
	case proves(s.doomed):
		n.proof = FloorDoomed
	case proves(n.earliestValue(now, now, c)):
		n.proof = FloorCandidate
	case proves(n.crossingValue(now, c)):
		n.proof = FloorCrossing
	}
	return n.proof != NotProven
}

// crossingValue is ProvablyRisky's floor (c) for candidate item c: a
// lower bound on the value of the kept item with the earliest deadline,
// or 1, which floors every value, when a guard fails.
func (n *PSNode) crossingValue(now float64, c fluidItem) float64 {
	s := &n.risk
	dt := now - n.lastT
	if !(dt <= s.steady) || s.urgent-now <= epsTime {
		return 1
	}
	// j is the urgent slice as the predictor projects it, or the
	// candidate if its deadline is earlier.
	j := fluidItem{believed: clampNonNegative(s.urgentWork - s.urgentRate*dt), absDeadline: s.urgent}
	w, terms := s.share-dt*s.drift, s.share+dt*s.drift
	if c.believed > epsWork {
		if c.absDeadline-now <= epsTime {
			return 1
		}
		cw := n.weightAt(c.believed, c.absDeadline-now)
		w, terms = w+cw, terms+cw
		if c.absDeadline < j.absDeadline {
			j = c
		}
	}
	w -= 1e-9 * terms
	if !(w > n.speed) || math.IsInf(j.absDeadline, 1) {
		return 1
	}
	b := j.believed
	j.believed = b - n.speed*math.Min(b, n.cfg.MaxWeight*(j.absDeadline-now))/w - 1e-12*b
	return n.earliestValue(now, j.absDeadline, j)
}

// summarizeRisk rebuilds the risk summary at the current version.
func (n *PSNode) summarizeRisk() {
	s := riskSummary{
		version: n.version, valid: true, exhausted: math.Inf(1), last: math.Inf(-1),
		doomed: 1, urgent: math.Inf(1), steady: math.Inf(1),
	}
	for _, sl := range n.slices {
		b, d := sl.believedWork, sl.job.Job.AbsDeadline()
		s.backlog += clampNonNegative(b)
		if d > s.last {
			s.last = d
		}
		if b <= epsWork {
			if d < s.exhausted {
				s.exhausted = d
			}
			continue
		}
		if v := n.earliestValue(n.lastT, n.lastT, fluidItem{believed: b, absDeadline: d}); v > s.doomed {
			s.doomed = v
		}
		if d < s.urgent {
			s.urgent, s.urgentWork, s.urgentRate = d, b, sl.rate
		}
		if sl.rate > 0 {
			if t := clampNonNegative((b - 2*epsWork) * (1 - 1e-9) / sl.rate); t < s.steady {
				s.steady = t
			}
		}
		if r := d - n.lastT; r > epsTime {
			s.share += n.weightAt(b, r)
			s.drift += sl.rate / r
		}
	}
	n.risk = s
}

func libraShare(believed, remDeadline float64) float64 {
	switch {
	case believed <= epsWork:
		return 0
	case remDeadline <= epsTime:
		return math.Inf(1)
	default:
		return believed / remDeadline
	}
}

// WorkToNodeSeconds converts reference-seconds of work to this node's
// dedicated seconds via the machine-independent MI length.
func (n *PSNode) WorkToNodeSeconds(refSeconds float64) float64 {
	return refSeconds * n.cfg.RefRating / n.rating
}

// NodeSecondsToWork is the inverse conversion: this node's dedicated
// seconds back to reference seconds, used when a killed job's remaining
// work must be re-expressed for resubmission.
func (n *PSNode) NodeSecondsToWork(nodeSeconds float64) float64 {
	return nodeSeconds * n.rating / n.cfg.RefRating
}

// markDown crashes the node: progress is accrued up to now, every slice is
// dropped (the cluster has already claimed them for job-level kill
// bookkeeping), the pending update event is cancelled, and the node
// refuses work until markUp. Returns the slices that were in flight.
func (n *PSNode) markDown(e *sim.Engine) []*slice {
	n.advance(e.Now())
	victims := append([]*slice(nil), n.slices...)
	n.slices = n.slices[:0]
	n.down = true
	n.version++
	if n.update != nil {
		n.update.Cancel()
		n.update = nil
	}
	return victims
}

// markUp recovers a crashed node; it comes back empty at its current
// speed factor.
func (n *PSNode) markUp() {
	n.down = false
	n.version++
}

// removeJobSlice drops rj's slice (rj was killed elsewhere in its gang),
// with its progress accrued up to now, and returns it; nil when the node
// holds none (a gang has at most one slice per node). Rates are re-derived
// for the survivors.
func (n *PSNode) removeJobSlice(e *sim.Engine, rj *RunningJob) *slice {
	n.advance(e.Now())
	i := slices.IndexFunc(n.slices, func(sl *slice) bool { return sl.job == rj })
	if i < 0 {
		return nil
	}
	dropped := n.slices[i]
	n.slices = slices.Delete(n.slices, i, i+1)
	n.version++
	n.recompute(e.Now())
	n.reschedule(e)
	return dropped
}

// Utilization returns the fraction of capacity currently allocated
// (Σ rates), for monitoring.
func (n *PSNode) Utilization() float64 {
	var total float64
	for _, sl := range n.slices {
		total += sl.rate
	}
	return total
}
