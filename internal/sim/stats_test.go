package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if !almostEq(w.StdDevPop(), 2, 1e-12) {
		t.Fatalf("StdDevPop = %v, want 2", w.StdDevPop())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
	if !almostEq(w.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %v, want 40", w.Sum())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.VariancePop() != 0 || w.StdDev() != 0 {
		t.Fatal("empty Welford should return zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.VariancePop() != 0 || w.Variance() != 0 {
		t.Fatalf("single observation: mean %v varPop %v var %v", w.Mean(), w.VariancePop(), w.Variance())
	}
}

func TestWelfordConstantSeriesHasZeroVariance(t *testing.T) {
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(7.25)
	}
	if w.VariancePop() > 1e-18 {
		t.Fatalf("constant series variance = %v, want 0", w.VariancePop())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var all, a, b Welford
		for i := 0; i < 200; i++ {
			x := r.Normal(0, 10)
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == all.N() &&
			almostEq(a.Mean(), all.Mean(), 1e-9) &&
			almostEq(a.VariancePop(), all.VariancePop(), 1e-7) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(b)
	if a.N() != 0 {
		t.Fatal("merging two empties should stay empty")
	}
	b.Add(5)
	a.Merge(b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatalf("merge into empty: N=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(c)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merging an empty must be a no-op")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 10; i >= 1; i-- {
		s.Add(float64(i))
	}
	if s.N() != 10 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := s.Median(); !almostEq(got, 5.5, 1e-12) {
		t.Fatalf("median = %v, want 5.5", got)
	}
	if got := s.Quantile(0.25); !almostEq(got, 3.25, 1e-12) {
		t.Fatalf("Q.25 = %v, want 3.25", got)
	}
	if got := s.Mean(); !almostEq(got, 5.5, 1e-12) {
		t.Fatalf("mean = %v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Median()
	s.Add(3)
	if got := s.Median(); got != 3 {
		t.Fatalf("median after re-add = %v, want 3", got)
	}
}

func TestSampleQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var s Sample
		for i := 0; i < 100; i++ {
			s.Add(r.Normal(0, 1))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
