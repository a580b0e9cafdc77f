package cluster

import (
	"math"
	"sort"
)

// predictDelaysNaive is the reference fluid predictor: fresh slices per
// call, no early exit, and a final sort. The equivalence tests, the paper
// stream test and the fuzz targets hold PredictDelaysScratch and
// PredictDelaysWithin to it.
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
