package cluster

import "math"

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

// PredictDelaysScratch runs a deterministic fluid simulation of the node
// forward in time using the *believed* remaining work of every active
// slice, plus an optional candidate, and reports each slice's predicted
// completion and delay, in ascending JobID order. It mirrors the execution
// engine's weight conventions (including the overrun floor and
// deadline-crossing cap) and re-derives weights at every predicted
// completion, exactly as the live node does.
//
// This is the information LibraRisk's admission control (Algorithm 1,
// lines 2-5) needs: the delay every job on node j would incur if the new
// job were scheduled there. A slice whose believed work is already
// exhausted is predicted to finish "now"; if its deadline has passed its
// delay is already positive — the signal Libra's share test cannot see.
//
// It runs on the node's reusable scratch buffers and performs no
// allocation in steady state. The returned slice is owned by the node and
// valid only until the next prediction call on it; callers that need to
// retain predictions must copy them.
func (n *PSNode) PredictDelaysScratch(now float64, cand *Candidate) []PredictedDelay {
	out, _ := n.PredictDelaysWithin(now, cand, math.Inf(1))
	return out
}

// PredictDelaysWithin is PredictDelaysScratch that stops as soon as it
// proves the population standard deviation σ of the eq. (4) values,
// DeadlineDelay(Delay, AbsDeadline-now), exceeds limit.
//
// It keeps a lower bound hi on the largest value and an upper bound lo on
// the smallest. For n values, any two a and b give
// n·σ² ≥ (a−µ)² + (b−µ)² ≥ (a−b)²/2, so σ ≥ (hi−lo)/√(2n), and n (the
// slices plus the candidate) is known before the first step. The loop
// stops once hi−lo > 2·limit·√(2n) + 1e-12·hi: the factor 2 and the
// relative term leave room for the rounding of a σ computed in floating
// point from values as large as the largest (eq. 4 reaches 1e6 and beyond
// as the remaining deadline nears zero); a true maximum above hi only
// widens the gap by more than it raises the relative term. It then returns
// ok = false and a partial verdict slice. Otherwise ok is true and the
// verdicts are exactly those of PredictDelaysScratch; limit = +Inf always
// runs to completion.
//
// Three sources feed the bounds. Each verdict's value is folded in as it
// is produced. Before the first step, on a work-conserving node every item
// finishes by the horizon H = now + Σb/speed + n·epsTime + 1e-9·|H| (b the
// believed work; see ProvablyRisky for why), which caps the value of the
// item with the latest deadline, and so lo. And an item holding believed
// work b at time t cannot retire before f = t + (b−epsWork)/speed, less
// 1e-9·|f|, which floors its value, and so hi; this is folded for every
// item before the first step and, at each step, for every item past its
// deadline with work left (earliestValue). That floor holds because:
//
//   - no item is served faster than speed: a weight w is part of the total
//     it is divided by, so w/total ≤ 1, and under strict shares w is served
//     undivided only when w ≤ total ≤ 1;
//   - an item retires once its believed work is at most epsWork, which
//     can bring its finish forward by epsWork/speed and no more;
//   - a step floored to epsTime only lengthens the step, which can only
//     delay a finish;
//   - the margin on f is relative, so it covers the rounding of t and of
//     the work decrements, which grows with |t|, also at an epoch-scale now
//     (about 1.7e9, where one ulp of t is 2.4e-7 s).
//
// Under strict shares the node may idle, so only that floor applies; lo
// then comes from verdicts alone.
func (n *PSNode) PredictDelaysWithin(now float64, cand *Candidate, limit float64) (out []PredictedDelay, ok bool) {
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
	lo, hi := math.Inf(1), math.Inf(-1)
	if bounded && len(items) > 0 {
		spread = 2 * limit * math.Sqrt(2*float64(len(items)))
		// Entry bounds: every item's earliest finish bounds hi; on a
		// work-conserving node the backlog horizon bounds lo, through the
		// item with the latest deadline.
		var backlog float64
		last := math.Inf(-1)
		for _, it := range items {
			if v := n.earliestValue(now, now, it); v > hi {
				hi = v
			}
			backlog += it.believed
			if it.absDeadline > last {
				last = it.absDeadline
			}
		}
		if n.cfg.WorkConserving {
			h := now + backlog/n.speed + float64(len(items))*epsTime
			h += 1e-9 * math.Abs(h)
			lo = DeadlineDelay(h-last, last-now)
		}
	}
	out = n.predOut[:0]
	// rates holds each item's weight, then (once the total is known) its
	// rate for the current step.
	rates := n.scratchWeights(len(items))
	t, steps := now, 0
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
			n.predOut, n.predSteps = out, steps
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
			if rd := it.absDeadline - t; rd > epsTime {
				if rd < minRD {
					minRD = rd
				}
			} else if bounded {
				// Crossing bound: past its deadline with believed work
				// left, the item's earliest finish from t bounds hi.
				if v := n.earliestValue(now, t, it); v > hi {
					hi = v
				}
			}
			if rate <= 0 {
				continue
			}
			if dt := it.believed / rate; dt < minDT {
				minDT = dt
			}
		}
		if bounded && hi-lo > spread+1e-12*hi {
			n.predOut, n.predSteps = out, steps
			return out, false
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
		steps++
		for i := range items {
			items[i].believed -= rates[i] * minDT
		}
	}
	n.predOut, n.predSteps = out, steps
	return out, true
}

// earliestValue is a lower bound on the eq. (4) value of an item that
// holds its believed work at time t: no item is served faster than the
// node's speed, so it cannot retire before t + (believed − epsWork)/speed,
// less a relative margin for rounding (see PredictDelaysWithin).
func (n *PSNode) earliestValue(now, t float64, it fluidItem) float64 {
	f := t + (it.believed-epsWork)/n.speed
	f -= 1e-9 * math.Abs(f)
	return DeadlineDelay(f-it.absDeadline, it.absDeadline-now)
}

// PredictSteps reports how many fluid steps the node's last
// PredictDelaysWithin (or PredictDelaysScratch) call took before it
// completed or stopped: 0 means it decided at now, before the first step.
func (n *PSNode) PredictSteps() int { return n.predSteps }

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
