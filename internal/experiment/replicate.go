package experiment

import (
	"fmt"
	"math"

	"clustersched/internal/metrics"
	"clustersched/internal/workload"
)

// Replicated holds the across-seed distribution of the two evaluation
// metrics for one spec: mean, sample standard deviation, and a 95 %
// confidence half-width (Student-t for small n).
type Replicated struct {
	Spec  RunSpec
	Seeds int

	FulfilledMean float64
	FulfilledStd  float64
	FulfilledCI95 float64

	SlowdownMean float64
	SlowdownStd  float64
	SlowdownCI95 float64
}

// tCrit95 are two-sided 95 % Student-t critical values by degrees of
// freedom (1-based index); beyond the table the normal 1.96 applies.
var tCrit95 = []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086}

func tCritical(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tCrit95) {
		return tCrit95[df]
	}
	return 1.96
}

// RunReplicated executes the spec across the given workload seeds (each
// seed regenerates the base workload and the deadline stream) and returns
// the metric distribution. At least one seed is required; confidence
// intervals need at least two.
func RunReplicated(base BaseConfig, spec RunSpec, seeds []uint64) (Replicated, error) {
	if len(seeds) == 0 {
		return Replicated{}, fmt.Errorf("experiment: no seeds")
	}
	specs := make([]RunSpec, len(seeds))
	bases := make([][]workload.Job, len(seeds))
	for i, seed := range seeds {
		gen := base.Generator
		gen.Seed = seed
		jobs, err := workload.Generate(gen)
		if err != nil {
			return Replicated{}, err
		}
		bases[i] = jobs
		s := spec
		s.Deadline.Seed = seed + 1000003 // decouple deadline stream per seed
		s.Seed = seed                    // stamp the cell identity for error messages
		specs[i] = s
	}
	// Replications are independent simulations, run here one after
	// another on the caller's goroutine, one result per seed.
	results := make([]metrics.Summary, len(seeds))
	for i := range seeds {
		s, err := Run(base, bases[i], specs[i])
		if err != nil {
			return Replicated{}, fmt.Errorf("experiment: %s: %w", specs[i].Ident(), err)
		}
		results[i] = s
	}
	out := Replicated{Spec: spec, Seeds: len(seeds)}
	out.FulfilledMean, out.FulfilledStd, out.FulfilledCI95 = meanStdCI(results, func(s metrics.Summary) float64 { return s.PctFulfilled })
	out.SlowdownMean, out.SlowdownStd, out.SlowdownCI95 = meanStdCI(results, func(s metrics.Summary) float64 { return s.AvgSlowdownMet })
	return out, nil
}

func meanStdCI(results []metrics.Summary, get func(metrics.Summary) float64) (mean, std, ci float64) {
	n := len(results)
	for _, r := range results {
		mean += get(r)
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0, 0
	}
	var sq float64
	for _, r := range results {
		d := get(r) - mean
		sq += d * d
	}
	std = math.Sqrt(sq / float64(n-1))
	ci = tCritical(n-1) * std / math.Sqrt(float64(n))
	return mean, std, ci
}

// SeedsFrom returns n deterministic workload seeds derived from start.
func SeedsFrom(start uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)*7919 // spaced primes avoid adjacent-seed artefacts
	}
	return out
}
