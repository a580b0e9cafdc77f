package sim

import (
	"math"
	"sort"
)

// Welford accumulates mean and variance online in a numerically stable way.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// VariancePop returns the population variance (dividing by n), matching the
// paper's eq. 6 which uses the population form for the risk metric.
func (w *Welford) VariancePop() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Variance returns the sample variance (dividing by n-1).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDevPop returns the population standard deviation.
func (w *Welford) StdDevPop() float64 { return math.Sqrt(w.VariancePop()) }

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Sum returns n * mean, the total of all observations.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Merge combines another accumulator into this one (parallel Welford).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	min := math.Min(w.min, o.min)
	max := math.Max(w.max, o.max)
	*w = Welford{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Sample retains every observation for exact quantiles. Suitable for the
// trace sizes used here (thousands of jobs).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation of
// the sorted sample, or 0 with no observations.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }
