package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The tail named in a report must have at least ten samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{168, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := c.n - rank(c.n, got); got != 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond", c.n, got, beyond)
		}
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	q := summarize(in)
	if q.Median != 3 || q.Q1 != 2 || q.Q3 != 4 || q.N != 5 {
		t.Errorf("summarize = %+v", q)
	}
	if in[0] != 5 {
		t.Error("summarize reordered its input")
	}
	if q := summarize([]float64{1, 2}); q.Median != 1.5 {
		t.Errorf("median of two = %g", q.Median)
	}
}

func TestSegmentMedians(t *testing.T) {
	// Three segments of four ops. Segment k's ops all take k+1 ms and
	// complete back to back, so its rate is 4 ops per 4(k+1) ms.
	var endS, latMS []float64
	now := 0.0
	for k := 0; k < 3; k++ {
		for i := 0; i < 4; i++ {
			now += float64(k+1) / 1e3
			endS = append(endS, now)
			latMS = append(latMS, float64(k+1))
		}
	}
	// Two connections complete out of order: the segment boundary is the
	// latest completion, wherever it sits in the segment.
	endS[2], endS[3] = endS[3], endS[2]
	segs := cutSegments(0, endS, latMS, 4)
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	total := 0.0
	for _, s := range segs {
		total += s.wallS
	}
	if math.Abs(total-now) > 1e-12 {
		t.Errorf("segment walls sum to %g, phase took %g", total, now)
	}
	rate := overSegments(segs, segment.rate)
	if math.Abs(rate.Median-500) > 1e-6 || rate.N != 3 {
		t.Errorf("median rate = %+v, want 500 over 3 segments", rate)
	}
	if p50 := overSegments(segs, segment.p50); p50.Median != 2 {
		t.Errorf("median of segment p50s = %g, want 2", p50.Median)
	}
	// An incomplete trailing segment is dropped, not averaged in.
	if got := len(cutSegments(0, endS[:11], latMS[:11], 4)); got != 2 {
		t.Errorf("%d segments from 11 ops, want 2", got)
	}
}
