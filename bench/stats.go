package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest value with at least p % of the
// samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n/100 from landing a hair above a whole rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the tail percentiles a report may name, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has
// at least ten of n samples beyond it, so a reported tail never rests on
// a handful of outliers. It falls back to the median when even p75 does
// not.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles summarises one metric's samples: the reported value is the
// median, printed beside the quartiles and the sample count.
type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of values (linear
// interpolation between closest ranks). It does not modify values.
func summarize(values []float64) quartiles {
	if len(values) == 0 {
		return quartiles{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), N: len(s)}
}

// segment is one equal slice of the timed phase with its own statistics.
type segment struct {
	wallS  float64   // wall time the segment's ops took
	latMS  []float64 // per-op latencies, ascending
	ops    int
	tailAt float64 // percentile named for the tail
}

func (s segment) rate() float64 { return float64(s.ops) / s.wallS }
func (s segment) p50() float64  { return percentile(s.latMS, 50) }
func (s segment) tail() float64 { return percentile(s.latMS, s.tailAt) }

// cutSegments splits per-op (end time, latency) samples, indexed by op
// number, into equal segments of segOps ops. A segment's wall time runs
// from the completion of the previous segment's last op (or start) to
// the completion of its own last op, so the segment walls add up to the
// phase's wall time exactly.
func cutSegments(start float64, endS, latMS []float64, segOps int) []segment {
	n := len(endS) / segOps
	segs := make([]segment, 0, n)
	prev := start
	for k := 0; k < n; k++ {
		lo, hi := k*segOps, (k+1)*segOps
		last := prev
		for _, e := range endS[lo:hi] {
			if e > last {
				last = e
			}
		}
		lat := append([]float64(nil), latMS[lo:hi]...)
		sort.Float64s(lat)
		segs = append(segs, segment{wallS: last - prev, latMS: lat, ops: segOps, tailAt: tailPercentile(segOps)})
		prev = last
	}
	return segs
}

// overSegments applies stat to every segment and summarises the results:
// the "median over segments of the segment's own statistic" estimator.
func overSegments(segs []segment, stat func(segment) float64) quartiles {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = stat(s)
	}
	return summarize(v)
}
