package workload

import (
	"fmt"
	"math"

	"clustersched/internal/sim"
)

// EstimateConfig models user runtime estimates. The paper's central
// empirical observation (echoing Mu'alem & Feitelson 2001 and Tsafrir et
// al. 2005) is that real estimates are highly inaccurate and *often* — not
// always — overestimated: most users pad generously and round to "nice"
// values, a small fraction nail the runtime, and a minority underestimate
// (their jobs outlive the request). The underestimated minority is what
// defeats Libra's share bookkeeping and what LibraRisk's σ metric detects.
type EstimateConfig struct {
	// ExactFraction of jobs carry an estimate equal to their runtime.
	ExactFraction float64
	// UnderFraction of jobs underestimate: estimate = runtime × U(UnderLo,
	// UnderHi) with UnderHi < 1.
	UnderFraction    float64
	UnderLo, UnderHi float64
	// The remaining jobs overestimate by a lognormal factor with the given
	// mean and CV, clamped to [OverMin, OverMax].
	OverFactorMean float64
	OverFactorCV   float64
	OverMin        float64
	OverMax        float64
	// RoundTo, if positive, rounds overestimates up to a multiple of this
	// many seconds, mimicking users picking round requested times
	// (15 minutes by default, per the modal estimates in real traces).
	RoundTo float64
}

// DefaultEstimateConfig returns the calibrated estimate error model.
func DefaultEstimateConfig() EstimateConfig {
	return EstimateConfig{
		ExactFraction:  0.10,
		UnderFraction:  0.12,
		UnderLo:        0.30,
		UnderHi:        0.95,
		OverFactorMean: 4.0,
		OverFactorCV:   1.0,
		OverMin:        1.05,
		OverMax:        50,
		RoundTo:        15 * 60,
	}
}

// Validate reports the first configuration error.
func (c EstimateConfig) Validate() error {
	switch {
	case c.ExactFraction < 0 || c.UnderFraction < 0 || c.ExactFraction+c.UnderFraction > 1:
		return fmt.Errorf("workload: estimate fractions exact=%g under=%g invalid", c.ExactFraction, c.UnderFraction)
	case c.UnderFraction > 0 && (c.UnderLo <= 0 || c.UnderHi >= 1 || c.UnderLo > c.UnderHi):
		return fmt.Errorf("workload: under-estimate range [%g, %g] invalid", c.UnderLo, c.UnderHi)
	case c.OverFactorMean < 1:
		return fmt.Errorf("workload: OverFactorMean = %g, want >= 1", c.OverFactorMean)
	case c.OverMin < 1 || c.OverMax < c.OverMin:
		return fmt.Errorf("workload: over-factor clamp [%g, %g] invalid", c.OverMin, c.OverMax)
	case c.RoundTo < 0:
		return fmt.Errorf("workload: RoundTo = %g, want >= 0", c.RoundTo)
	}
	return nil
}

// sampleEstimate draws one user estimate for a job with the given real
// runtime; over is the over-estimate factor's distribution,
// newLognormal(c.OverFactorMean, c.OverFactorCV).
func sampleEstimate(r *sim.RNG, runtime float64, c EstimateConfig, over lognormal, maxRuntime float64) float64 {
	u := r.Float64()
	switch {
	case u < c.ExactFraction:
		return runtime
	case u < c.ExactFraction+c.UnderFraction:
		f := c.UnderLo + r.Float64()*(c.UnderHi-c.UnderLo)
		return math.Max(1, runtime*f)
	default:
		f := clamp(over.sample(r), c.OverMin, c.OverMax)
		est := runtime * f
		if c.RoundTo > 0 {
			est = math.Ceil(est/c.RoundTo) * c.RoundTo
		}
		// Users cannot request more than the system maximum; cap well
		// above the runtime ceiling the way queue limits do.
		return math.Min(est, maxRuntime*2)
	}
}
