package cluster

import (
	"math"
	"sort"
)

// Candidate describes a prospective slice for admission analysis: the work
// it would bring to the node (in reference seconds; converted per node) and
// its absolute deadline.
type Candidate struct {
	JobID       int
	RefWork     float64
	AbsDeadline float64
}

// PredictedDelay is the fluid predictor's verdict for one slice: how far
// past its absolute deadline the slice is expected to finish under
// proportional sharing, given everyone's believed remaining work.
type PredictedDelay struct {
	JobID       int
	AbsDeadline float64
	Finish      float64 // predicted completion time
	Delay       float64 // max(0, Finish - AbsDeadline)
}

// fluidItem is the predictor's working state for one slice.
type fluidItem struct {
	jobID       int
	believed    float64
	absDeadline float64
}

// PredictDelays runs a deterministic fluid simulation of the node forward
// in time using the *believed* remaining work of every active slice, plus
// an optional candidate, and reports each slice's predicted completion and
// delay, in ascending JobID order. It mirrors the execution engine's
// weight conventions (including the overrun floor and deadline-crossing
// cap) and re-derives weights at every predicted completion, exactly as
// the live node does.
//
// This is the information LibraRisk's admission control (Algorithm 1,
// lines 2-5) needs: the delay every job on node j would incur if the new
// job were scheduled there. A slice whose believed work is already
// exhausted is predicted to finish "now"; if its deadline has passed its
// delay is already positive — the signal Libra's share test cannot see.
//
// The returned slice is freshly allocated and safe to retain; hot paths
// use PredictDelaysScratch instead.
func (n *PSNode) PredictDelays(now float64, cand *Candidate) []PredictedDelay {
	if n.cfg.NaivePredictor {
		return n.predictDelaysNaive(now, cand)
	}
	return append([]PredictedDelay{}, n.PredictDelaysScratch(now, cand)...)
}

// PredictDelaysScratch is PredictDelays on the node's reusable scratch
// buffers: it performs no allocation in steady state. The returned slice
// is owned by the node and valid only until the next PredictDelaysScratch
// call on it; callers that need to retain predictions must copy them.
// Values and order are identical to PredictDelays.
func (n *PSNode) PredictDelaysScratch(now float64, cand *Candidate) []PredictedDelay {
	out, _ := n.PredictDelaysWithin(now, cand, math.Inf(1))
	return out
}

// PredictDelaysWithin is PredictDelaysScratch that stops as soon as its
// verdicts prove the population standard deviation σ of their eq. (4)
// values, DeadlineDelay(Delay, AbsDeadline-now), exceeds limit.
//
// Each verdict's value is folded into a running minimum lo and maximum hi
// as it is produced. For n values, any two a and b give
// n·σ² ≥ (a−µ)² + (b−µ)² ≥ (a−b)²/2, so σ ≥ (hi−lo)/√(2n), and n (the
// slices plus the candidate) is known before the first step. The loop
// stops once hi−lo > 2·limit·√(2n) + 1e-12·hi: the factor 2 and the
// relative term leave room for the rounding of a σ computed in floating
// point from values as large as hi (eq. 4 reaches 1e6 and beyond as the
// remaining deadline nears zero). It then returns ok = false and a partial
// verdict slice. Otherwise ok is true and the verdicts are exactly those of
// PredictDelaysScratch; limit = +Inf always runs to completion.
func (n *PSNode) PredictDelaysWithin(now float64, cand *Candidate, limit float64) (out []PredictedDelay, ok bool) {
	if n.cfg.NaivePredictor {
		return n.predictDelaysNaive(now, cand), true
	}
	want := len(n.slices) + 1
	if cap(n.predItems) < want {
		n.predItems = make([]fluidItem, 0, want)
	}
	if cap(n.predOut) < want {
		n.predOut = make([]PredictedDelay, 0, want)
	}
	items := n.predItems[:0]
	for _, sl := range n.slices {
		items = append(items, fluidItem{
			jobID:       sl.job.Job.ID,
			believed:    clampNonNegative(n.projectedBelieved(sl, now)),
			absDeadline: sl.job.Job.AbsDeadline(),
		})
	}
	if cand != nil {
		items = append(items, fluidItem{
			jobID:       cand.JobID,
			believed:    clampNonNegative(n.WorkToNodeSeconds(cand.RefWork)),
			absDeadline: cand.AbsDeadline,
		})
	}
	bounded := !math.IsInf(limit, 1)
	var spread float64
	if bounded {
		spread = 2 * limit * math.Sqrt(2*float64(len(items)))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	out = n.predOut[:0]
	// rates holds each item's weight, then (once the total is known) its
	// rate for the current step.
	rates := n.scratchWeights(len(items))
	t := now
	for len(items) > 0 {
		// Retire items the allocator believes are already done.
		kept := items[:0]
		for _, it := range items {
			if it.believed <= epsWork {
				pd := verdict(it, t)
				out = insertVerdict(out, pd)
				if bounded {
					v := DeadlineDelay(pd.Delay, pd.AbsDeadline-now)
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			} else {
				kept = append(kept, it)
			}
		}
		items = kept
		if bounded && hi-lo > spread+1e-12*hi {
			n.predOut = out
			return out, false
		}
		if len(items) == 0 {
			break
		}
		// Derive rates with the live engine's conventions.
		var total float64
		rates = rates[:len(items)]
		for i, it := range items {
			w := n.weightAt(it.believed, it.absDeadline-t)
			rates[i] = w
			total += w
		}
		// Find the earliest completion at these rates, and the earliest
		// weight-regime change (deadline crossing) so the mirrored
		// conventions stay exact.
		minDT, minRD := math.Inf(1), math.Inf(1)
		for i, it := range items {
			rate := fluidRate(rates[i], total, n.speed, n.cfg)
			rates[i] = rate
			if rd := it.absDeadline - t; rd > epsTime && rd < minRD {
				minRD = rd
			}
			if rate <= 0 {
				continue
			}
			if dt := it.believed / rate; dt < minDT {
				minDT = dt
			}
		}
		if math.IsInf(minDT, 1) {
			// No slice can progress (cannot happen with a positive floor
			// weight, but guard against config edge cases): everything
			// left finishes never; report an unbounded delay.
			for _, it := range items {
				out = insertVerdict(out, PredictedDelay{
					JobID: it.jobID, AbsDeadline: it.absDeadline,
					Finish: math.Inf(1), Delay: math.Inf(1),
				})
			}
			break
		}
		if minRD < minDT {
			minDT = minRD
		}
		if minDT < epsTime {
			minDT = epsTime
		}
		t += minDT
		for i := range items {
			items[i].believed -= rates[i] * minDT
		}
	}
	n.predOut = out
	return out, true
}

// insertVerdict places pd into out keeping it sorted by JobID, shifting
// the (few) larger entries up in place. Nodes host a handful of slices,
// so the linear shift beats sorting the whole output afterwards and,
// unlike sort.Slice, allocates nothing.
func insertVerdict(out []PredictedDelay, pd PredictedDelay) []PredictedDelay {
	out = append(out, pd)
	i := len(out) - 1
	for i > 0 && out[i-1].JobID > pd.JobID {
		out[i] = out[i-1]
		i--
	}
	out[i] = pd
	return out
}

// predictDelaysNaive is the reference implementation: fresh slices per
// call and a final sort, kept verbatim for the differential and
// equivalence tests that prove the scratch fast path produces identical
// output. Enabled via Config.NaivePredictor.
func (n *PSNode) predictDelaysNaive(now float64, cand *Candidate) []PredictedDelay {
	items := make([]fluidItem, 0, len(n.slices)+1)
	for _, sl := range n.slices {
		items = append(items, fluidItem{
			jobID:       sl.job.Job.ID,
			believed:    math.Max(0, n.projectedBelieved(sl, now)),
			absDeadline: sl.job.Job.AbsDeadline(),
		})
	}
	if cand != nil {
		items = append(items, fluidItem{
			jobID:       cand.JobID,
			believed:    math.Max(0, n.WorkToNodeSeconds(cand.RefWork)),
			absDeadline: cand.AbsDeadline,
		})
	}
	out := make([]PredictedDelay, 0, len(items))
	weights := make([]float64, len(items))
	t := now
	for len(items) > 0 {
		// Retire items the allocator believes are already done.
		kept := items[:0]
		for _, it := range items {
			if it.believed <= epsWork {
				out = append(out, verdict(it, t))
			} else {
				kept = append(kept, it)
			}
		}
		items = kept
		if len(items) == 0 {
			break
		}
		// Derive rates with the live engine's conventions.
		var total float64
		weights = weights[:len(items)]
		for i, it := range items {
			w := n.weightAt(it.believed, it.absDeadline-t)
			weights[i] = w
			total += w
		}
		// Find the earliest completion at these rates.
		minDT := math.Inf(1)
		for i, it := range items {
			rate := fluidRate(weights[i], total, n.speed, n.cfg)
			if rate <= 0 {
				continue
			}
			if dt := it.believed / rate; dt < minDT {
				minDT = dt
			}
		}
		if math.IsInf(minDT, 1) {
			for _, it := range items {
				out = append(out, PredictedDelay{
					JobID: it.jobID, AbsDeadline: it.absDeadline,
					Finish: math.Inf(1), Delay: math.Inf(1),
				})
			}
			break
		}
		// Also stop at the earliest weight-regime change (deadline
		// crossing) so the mirrored conventions stay exact.
		for _, it := range items {
			if rd := it.absDeadline - t; rd > epsTime && rd < minDT {
				minDT = rd
			}
		}
		if minDT < epsTime {
			minDT = epsTime
		}
		t += minDT
		for i := range items {
			rate := fluidRate(weights[i], total, n.speed, n.cfg)
			items[i].believed -= rate * minDT
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

func fluidRate(w, total, speed float64, cfg Config) float64 {
	var r float64
	switch {
	case total <= 0:
		return 0
	case cfg.WorkConserving || total > 1:
		r = w / total
	default:
		r = w
	}
	if speed != 1 {
		// Mirror the live engine's straggler scaling (see
		// PSNode.recompute); the guard keeps the nominal path exact.
		r *= speed
	}
	return r
}

func verdict(it fluidItem, t float64) PredictedDelay {
	return PredictedDelay{
		JobID:       it.jobID,
		AbsDeadline: it.absDeadline,
		Finish:      t,
		Delay:       clampNonNegative(t - it.absDeadline),
	}
}

// clampNonNegative is math.Max(0, x) — NaN stays NaN, −0 becomes +0 —
// as a plain comparison: math.Max is an out-of-line call on amd64 and the
// predictor clamps on every verdict.
func clampNonNegative(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x
}

// epsRemaining guards the deadline-delay metric against a non-positive
// remaining deadline: a job already past its deadline gets an enormous
// (but finite) impact value, which is what eq. (4) intends as the
// remaining deadline approaches zero.
const epsRemaining = 1e-6

// DeadlineDelay computes the paper's eq. (4): the impact of a delay on a
// job's remaining deadline,
//
//	deadline_delay = (delay + remaining_deadline) / remaining_deadline.
//
// Its minimum and best value is 1 (no delay); it grows with longer delays
// and shorter remaining deadlines, discouraging violations of urgent jobs.
// A non-positive remaining deadline is clamped to a small epsilon.
func DeadlineDelay(delay, remainingDeadline float64) float64 {
	if delay < 0 {
		delay = 0
	}
	rd := remainingDeadline
	if rd < epsRemaining {
		rd = epsRemaining
	}
	return (delay + rd) / rd
}
