package core

import (
	"math"
	"testing"
	"testing/quick"

	"clustersched/internal/cluster"
)

func TestDeadlineDelayPaperExample(t *testing.T) {
	// §3.2 worked example: delay 20 s with remaining deadline 5 s gives
	// impact 5; the same delay with remaining deadline 10 s gives 3.
	if got := cluster.DeadlineDelay(20, 5); got != 5 {
		t.Fatalf("cluster.DeadlineDelay(20, 5) = %v, want 5", got)
	}
	if got := cluster.DeadlineDelay(20, 10); got != 3 {
		t.Fatalf("cluster.DeadlineDelay(20, 10) = %v, want 3", got)
	}
}

func TestDeadlineDelayZeroDelayIsOne(t *testing.T) {
	if got := cluster.DeadlineDelay(0, 100); got != 1 {
		t.Fatalf("cluster.DeadlineDelay(0, 100) = %v, want 1 (minimum and best)", got)
	}
}

func TestDeadlineDelayNegativeDelayClamped(t *testing.T) {
	if got := cluster.DeadlineDelay(-5, 100); got != 1 {
		t.Fatalf("cluster.DeadlineDelay(-5, 100) = %v, want 1", got)
	}
}

func TestDeadlineDelayExpiredDeadlineIsHuge(t *testing.T) {
	got := cluster.DeadlineDelay(10, 0)
	if got < 1e6 {
		t.Fatalf("cluster.DeadlineDelay(10, 0) = %v, want enormous", got)
	}
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("DeadlineDelay must stay finite, got %v", got)
	}
	if neg := cluster.DeadlineDelay(10, -50); neg < 1e6 {
		t.Fatalf("cluster.DeadlineDelay(10, -50) = %v, want enormous", neg)
	}
}

func TestDeadlineDelayMonotoneProperties(t *testing.T) {
	// Higher impact for longer delay, and for shorter remaining deadline.
	f := func(d1, d2, rd uint16) bool {
		delayA := float64(d1)
		delayB := delayA + float64(d2) + 1
		r := float64(rd) + 1
		if cluster.DeadlineDelay(delayB, r) <= cluster.DeadlineDelay(delayA, r) && delayB > delayA {
			return false
		}
		return cluster.DeadlineDelay(delayB, r/2) >= cluster.DeadlineDelay(delayB, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRiskOfDelayUniformValuesZeroSigma(t *testing.T) {
	mu, sigma := RiskOfDelay([]float64{1, 1, 1, 1})
	if mu != 1 || !ZeroRisk(sigma) {
		t.Fatalf("µ=%v σ=%v, want 1 and zero", mu, sigma)
	}
	// The paper's σ=0 test also holds for uniformly delayed jobs: the
	// metric measures spread, not level.
	mu, sigma = RiskOfDelay([]float64{3, 3, 3})
	if mu != 3 || !ZeroRisk(sigma) {
		t.Fatalf("uniform 3s: µ=%v σ=%v", mu, sigma)
	}
}

func TestRiskOfDelayMixedValuesPositiveSigma(t *testing.T) {
	mu, sigma := RiskOfDelay([]float64{1, 1, 5})
	if math.Abs(mu-7.0/3) > 1e-12 {
		t.Fatalf("µ = %v", mu)
	}
	if ZeroRisk(sigma) {
		t.Fatalf("σ = %v, want positive", sigma)
	}
	// Population stddev of {1,1,5}: mean 7/3, var = (2*(4/3)^2+(8/3)^2)/3.
	want := math.Sqrt((2*(4.0/3)*(4.0/3) + (8.0 / 3 * 8.0 / 3)) / 3)
	if math.Abs(sigma-want) > 1e-12 {
		t.Fatalf("σ = %v, want %v", sigma, want)
	}
}

func TestRiskOfDelayEmptyAndSingle(t *testing.T) {
	mu, sigma := RiskOfDelay(nil)
	if mu != 0 || sigma != 0 {
		t.Fatalf("empty: µ=%v σ=%v", mu, sigma)
	}
	mu, sigma = RiskOfDelay([]float64{7})
	if mu != 7 || !ZeroRisk(sigma) {
		t.Fatalf("single: µ=%v σ=%v (a lone value has no spread)", mu, sigma)
	}
}

func TestRiskOfDelaySigmaNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		vals := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				vals = append(vals, 1+math.Abs(x))
			}
		}
		_, sigma := RiskOfDelay(vals)
		return sigma >= 0 && !math.IsNaN(sigma)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRiskTolerance(t *testing.T) {
	if !ZeroRisk(0) || !ZeroRisk(1e-12) {
		t.Fatal("tiny sigma should count as zero")
	}
	if ZeroRisk(0.01) {
		t.Fatal("0.01 is not zero risk")
	}
}
