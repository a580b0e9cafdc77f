// Package core implements the paper's contribution: deadline-constrained
// job admission control for clusters, in three flavours — EDF (earliest
// deadline first, space-shared), Libra (deadline-based proportional
// processor share with a total-share admission test and best-fit node
// selection), and LibraRisk (Libra enhanced with a risk-of-deadline-delay
// metric that tolerates inaccurate runtime estimates).
package core

import (
	"math"
)

// sigmaTolerance is the numeric tolerance for "zero risk": population
// standard deviations below it count as zero. Fluid predictions are exact
// rationals in theory but float arithmetic leaves dust.
const sigmaTolerance = 1e-9

// RiskOfDelay computes eqs. (5)-(6): the mean deadline delay µ of the
// given values and the risk σ, their population standard deviation. A
// high σ indicates high uncertainty that jobs on the node avoid deadline
// delays; σ = 0 is ideal.
func RiskOfDelay(deadlineDelays []float64) (mu, sigma float64) {
	n := len(deadlineDelays)
	if n == 0 {
		return 0, 0
	}
	for _, d := range deadlineDelays {
		mu += d
	}
	mu /= float64(n)
	var sq float64
	for _, d := range deadlineDelays {
		diff := d - mu
		sq += diff * diff
	}
	sigma = math.Sqrt(sq / float64(n))
	return mu, sigma
}

// ZeroRisk reports whether sigma is zero within numeric tolerance.
func ZeroRisk(sigma float64) bool { return sigma <= sigmaTolerance }
