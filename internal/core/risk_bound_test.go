package core

import (
	"math"
	"math/rand"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// boundNodes builds one seeded random time-shared cluster — heterogeneous
// ratings, optionally strict (non-work-conserving) shares and a MaxWeight
// cap, underestimated (overrunning) and past-deadline slices, stragglers —
// and advances it to a random instant, which it returns.
func boundNodes(t *testing.T, rng *rand.Rand) (*cluster.TimeShared, float64) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.WorkConserving = rng.Intn(2) == 0
	cfg.MaxWeight = []float64{1, 0.6, 0.3}[rng.Intn(3)]
	ratings := make([]float64, 6)
	for i := range ratings {
		ratings[i] = []float64{84, 168, 336}[rng.Intn(3)]
	}
	c, err := cluster.NewTimeSharedHetero(ratings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	id := 1
	for n := 0; n < c.Len(); n++ {
		for k := rng.Intn(7); k > 0; k-- {
			runtime := 10 + rng.Float64()*2000
			estimate := runtime * (0.1 + 1.4*rng.Float64())
			j := workload.Job{
				ID: id, Runtime: runtime, TraceEstimate: estimate, NumProc: 1,
				Deadline: runtime * (0.3 + 8*rng.Float64()),
			}
			if _, err := c.Submit(e, j, estimate, []int{n}); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if rng.Intn(3) == 0 {
			c.Node(n).SetSpeed(e, []float64{0.5, 1.7}[rng.Intn(2)])
		}
	}
	now := rng.Float64() * 1500
	e.MaxEvents = 1_000_000
	e.SetHorizon(now)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return c, now
}

// TestBoundedRiskDecisionIdentical proves the σ bound decision-identical:
// on seeded random nodes, for every threshold, the bounded evalNode must
// agree with the full NodeRisk on suitability, and whenever it runs the
// simulation to completion its µ and σ must be NodeRisk's to the bit.
func TestBoundedRiskDecisionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stopped, completed, accepted, huge int
	for trial := 0; trial < 200; trial++ {
		c, now := boundNodes(t, rng)
		p := NewLibraRisk(c, metrics.NewRecorder())
		for n := 0; n < c.Len(); n++ {
			node := c.Node(n)
			for k := 0; k < 6; k++ {
				// Remaining deadlines down to and below the eq. (4) clamp,
				// so values reach 1e6 and beyond.
				rd := []float64{rng.Float64() * 3e4, rng.Float64() * 3000, 5e-7, 1e-8, 0, -5}[k]
				cand := &cluster.Candidate{JobID: 1 << 20, RefWork: 1 + rng.Float64()*300, AbsDeadline: now + rd}
				for _, pr := range node.PredictDelaysScratch(now, cand) {
					if cluster.DeadlineDelay(pr.Delay, pr.AbsDeadline-now) >= 1e6 {
						huge++
						break
					}
				}
				for _, thr := range []float64{0, 0.05, 0.5} {
					p.SigmaThreshold = thr
					wantMu, wantSigma := p.NodeRisk(now, node, cand)
					want := wantSigma <= thr+sigmaTolerance
					mu, sigma, suitable, computed := p.evalNode(now, node, cand, false)
					if suitable != want {
						t.Fatalf("trial %d node %d rd %g thr %g: bounded suitable = %v, full σ = %v", trial, n, rd, thr, suitable, wantSigma)
					}
					if suitable {
						accepted++
					}
					switch {
					case computed:
						completed++
						if math.Float64bits(mu) != math.Float64bits(wantMu) || math.Float64bits(sigma) != math.Float64bits(wantSigma) {
							t.Fatalf("trial %d node %d thr %g: bounded µ/σ = %v/%v, full %v/%v", trial, n, thr, mu, sigma, wantMu, wantSigma)
						}
					case node.NumSlices() > 0:
						stopped++
					}
				}
			}
		}
	}
	if stopped == 0 || completed == 0 || accepted == 0 || huge == 0 {
		t.Fatalf("property inputs too narrow: %d stopped early, %d completed, %d suitable, %d with eq. (4) values ≥ 1e6", stopped, completed, accepted, huge)
	}
	t.Logf("%d stopped early, %d completed, %d suitable, %d candidates with eq. (4) values ≥ 1e6", stopped, completed, accepted, huge)
}

// TestBoundedRiskAtTheBound pins the bound's edge on a hand-built node:
// one overrun slice (eq. 4 value 1) and a candidate that alone on the node
// finishes late by a chosen amount, giving two values {1, v}. With
// threshold 0.5 the bound stops the simulation once v − 1 exceeds
// 2·limit·√(2·2) + 1e-12·v ≈ 2. Just beyond it the simulation stops; just
// inside it completes (σ = (v−1)/2 ≈ 1 is still unsuitable). Both must
// match the full NodeRisk decision, and the completed one its σ bit for bit.
func TestBoundedRiskAtTheBound(t *testing.T) {
	const thr = 0.5
	limit := thr + sigmaTolerance
	bound := 2 * limit * math.Sqrt(4)
	for _, tc := range []struct {
		name     string
		work     float64 // candidate work; it runs alone from t=60, deadline 160
		stopsRun bool
	}{
		{"just beyond", 300.01, true},
		{"just inside", 299.99, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, p, _ := newRiskHarness(t, 1)
			p.SigmaThreshold = thr
			// Real 200 s, estimate 50 s, deadline 1000: overrun (believed
			// work exhausted) but on time at t=60.
			j := tsJob(1, 0, 200, 1000, 1)
			if _, err := p.Cluster.Submit(e, j, 50, []int{0}); err != nil {
				t.Fatal(err)
			}
			e.SetHorizon(60)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			const now = 60.0
			node := p.Cluster.Node(0)
			cand := &cluster.Candidate{JobID: 2, RefWork: tc.work, AbsDeadline: 160}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, pr := range node.PredictDelaysScratch(now, cand) {
				v := cluster.DeadlineDelay(pr.Delay, pr.AbsDeadline-now)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if gap := hi - lo - (bound + 1e-12*hi); math.Abs(gap) > 1e-3 || (gap > 0) != tc.stopsRun {
				t.Fatalf("values [%v, %v] sit %v from the bound, want just %s it", lo, hi, gap, tc.name)
			}
			wantMu, wantSigma := p.NodeRisk(now, node, cand)
			mu, sigma, suitable, computed := p.evalNode(now, node, cand, false)
			if suitable || wantSigma <= limit {
				t.Fatalf("suitable = %v with full σ = %v, want both unsuitable", suitable, wantSigma)
			}
			if computed == tc.stopsRun {
				t.Fatalf("computed = %v, want the bound to stop the run: %v", computed, tc.stopsRun)
			}
			if computed && (math.Float64bits(mu) != math.Float64bits(wantMu) || math.Float64bits(sigma) != math.Float64bits(wantSigma)) {
				t.Fatalf("µ/σ = %v/%v, full %v/%v", mu, sigma, wantMu, wantSigma)
			}
		})
	}
}
