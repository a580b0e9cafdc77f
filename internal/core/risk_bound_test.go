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

// TestBoundedRiskDecisionIdentical proves the σ bound and exit (5)
// decision-identical: on seeded random nodes, for every threshold, the
// bounded evalNode must agree with the full NodeRisk on suitability, and
// whenever it runs the simulation to completion its µ and σ must be
// NodeRisk's to the bit. Exit (5) must fire on some of the nodes.
func TestBoundedRiskDecisionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stopped, completed, accepted, huge, proven int
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
					if node.ProvablyRisky(now, cand, thr+sigmaTolerance) {
						proven++
					}
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
	if stopped == 0 || completed == 0 || accepted == 0 || huge == 0 || proven == 0 {
		t.Fatalf("property inputs too narrow: %d stopped early, %d completed, %d suitable, %d with eq. (4) values ≥ 1e6, %d proven risky by exit (5)", stopped, completed, accepted, huge, proven)
	}
	t.Logf("%d stopped early (%d by exit (5)), %d completed, %d suitable, %d candidates with eq. (4) values ≥ 1e6", stopped, proven, completed, accepted, huge)
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

// overdueNode returns a one-node LibraRisk harness at t = now whose node
// holds the given jobs, each submitted at t = 0 with its estimate.
func overdueNode(t *testing.T, now float64, jobs []workload.Job) (*LibraRisk, *cluster.PSNode) {
	t.Helper()
	e, p, _ := newRiskHarness(t, 1)
	for _, j := range jobs {
		if _, err := p.Cluster.Submit(e, j, j.TraceEstimate, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	e.SetHorizon(now)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return p, p.Cluster.Node(0)
}

// TestOverdueExitAtTheBound pins exit (5)'s edge on hand-built nodes at
// SigmaThreshold 0.5. At t = 60 job 1 has overrun its estimate and is
// past its deadline, so the predictor retires it at once with value v
// (1e7 + 1 when 10 s overdue). The candidate's deadline has passed too, and
// its finish is chosen to put its value u a set distance below v:
//
//   - "inside": u = v − 0.5, so σ = 0.25 and the node is suitable; the
//     exit must not fire, which needs its cap on the candidate's value;
//   - "beyond": u = v − 3, so σ = 1.5 and the exit must fire, since
//     v − u clears 2·limit·√(2·2) ≈ 2 with the float margins to spare;
//   - "behind a backlog": a second overdue job 2, not yet exhausted,
//     shares the node with the candidate, and both finish at values
//     within dust of v, so σ ≈ 0; the exit must not fire, which needs
//     job 2's backlog in its horizon.
//
// Each decision must match the full NodeRisk.
func TestOverdueExitAtTheBound(t *testing.T) {
	const (
		thr = 0.5
		now = 60.0
	)
	limit := thr + sigmaTolerance
	overrun := workload.Job{ID: 1, Runtime: 200, TraceEstimate: 50, NumProc: 1, Deadline: 50}
	for _, tc := range []struct {
		name   string
		cand   func(t *testing.T, node *cluster.PSNode) *cluster.Candidate
		jobs   []workload.Job
		proven bool
	}{
		{"inside", func(*testing.T, *cluster.PSNode) *cluster.Candidate {
			// Alone after job 1 retires, it finishes at 65: 10 s − 0.5 µs late.
			return &cluster.Candidate{JobID: 3, RefWork: 5, AbsDeadline: 55 + 0.5e-6}
		}, []workload.Job{overrun}, false},
		{"beyond", func(*testing.T, *cluster.PSNode) *cluster.Candidate {
			return &cluster.Candidate{JobID: 3, RefWork: 5, AbsDeadline: 55 + 3e-6}
		}, []workload.Job{overrun}, true},
		{"behind a backlog", func(t *testing.T, node *cluster.PSNode) *cluster.Candidate {
			// Job 1 (deadline 10) is 50 s overdue. Job 2 (deadline 60)
			// has b s of believed work left and shares the node with a
			// candidate of w = 50 − b at rate ½ each until the candidate
			// is done at now + 2w, then runs alone until now + w + b =
			// now + 50. Both are 50 s late, the candidate with deadline
			// 10 + 2w.
			var b float64
			for _, pr := range node.PredictDelaysScratch(now, nil) {
				if pr.JobID == 2 {
					b = pr.Finish - now
				}
			}
			w := 50 - b
			if !(w > 0 && w < b) {
				t.Fatalf("job 2 has %g s of believed work left, want it in (25, 50)", b)
			}
			return &cluster.Candidate{JobID: 3, RefWork: w, AbsDeadline: 10 + 2*w}
		}, []workload.Job{
			{ID: 1, Runtime: 1000, TraceEstimate: 10, NumProc: 1, Deadline: 10},
			{ID: 2, Runtime: 1000, TraceEstimate: 90, NumProc: 1, Deadline: 60},
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, node := overdueNode(t, now, tc.jobs)
			p.SigmaThreshold = thr
			cand := tc.cand(t, node)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, pr := range node.PredictDelaysScratch(now, cand) {
				v := cluster.DeadlineDelay(pr.Delay, pr.AbsDeadline-now)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if hi-lo > 4 {
				t.Fatalf("eq. (4) values [%v, %v], want all near the overdue slice's", lo, hi)
			}
			_, wantSigma := p.NodeRisk(now, node, cand)
			if wantSigma > limit == !tc.proven {
				t.Fatalf("full σ = %v (values [%v, %v]), want unsuitable = %v", wantSigma, lo, hi, tc.proven)
			}
			if got := node.ProvablyRisky(now, cand, limit); got != tc.proven {
				t.Fatalf("ProvablyRisky = %v, want %v (full σ = %v)", got, tc.proven, wantSigma)
			}
			if _, _, suitable, _ := p.evalNode(now, node, cand, false); suitable != (wantSigma <= limit) {
				t.Fatalf("evalNode suitable = %v, full σ = %v", suitable, wantSigma)
			}
		})
	}
}

// floorNode returns a one-node LibraRisk harness whose node, with the
// given speed and MaxWeight, holds the given jobs, each submitted at
// origin with its estimate. The engine is not run, so the node's last
// accrual point stays at origin and a later now is projected from there.
func floorNode(t *testing.T, origin, speed, maxWeight float64, jobs []workload.Job) (*LibraRisk, *cluster.PSNode) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.MaxWeight = maxWeight
	c, err := cluster.NewTimeShared(1, 168, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	e.AdvanceTo(origin)
	if speed != 1 {
		c.SetNodeSpeed(e, 0, speed)
	}
	for _, j := range jobs {
		j.Submit = origin
		if _, err := c.Submit(e, j, j.TraceEstimate, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	return NewLibraRisk(c, metrics.NewRecorder()), c.Node(0)
}

// TestRiskFloorsAtTheBound pins exit (5)'s three earliest-finish floors at
// their edges on hand-built nodes, from time origins 0 and 1.7e9, where
// the 1e-9·|f| margin on a finish f is 1.7 s and moves each edge by that.
// Every (a) and (b) case runs at SigmaThreshold 0.5 on a node whose
// MaxWeight of 0.3 caps the late item's weight and keeps the total weight
// below the speed, so floor (c) stays off:
//
//   - (a) a doomed resident: with b s of believed work, deadline 100 and
//     speed s, beside two on-time items of value 1, its value is at least
//     b/(100·s), which clears 2·limit·√(2·3) above 1 once b/s passes
//     edgeA; 0.01 s beyond and inside, on a straggler at speed 0.5, 50 s
//     into the version (the floor is taken at lastT), and at 1.7e9;
//   - (b) the candidate's earliest finish, the same beside one on-time
//     resident, so with √(2·2).
//
// Floor (c) runs under the paper's zero-σ rule. Two residents and the
// candidate share the node with weights in proportion to their deadlines,
// so the residents' shares sum to k:
//
//   - at origin 0 its edge is the overload itself: a total weight W 1e-6
//     above the speed makes the first resident late, 1e-6 below leaves
//     every item on time; at full speed, on a straggler, and with both
//     residents capped at MaxWeight, where the capped node is late even
//     inside (the weights understate its demand) and only the simulation
//     may reject it;
//   - at 1.7e9 the margin sets the edge: the first resident is left with
//     1.75 or 1.65 s of work at its crossing, around the 1.7 s margin;
//     capped at MaxWeight it is left with 40 s, which only the cap in
//     b_j − speed·min(b_j, MaxWeight·r_j)/W shows;
//   - it must stay off for a candidate already past its deadline (its own
//     floor (b) proves the node) and once a resident's believed work may
//     have run out since lastT: at now = 46 the exhausted resident no
//     longer weighs, and without the guard the drifted bound on W would
//     prove the node.
//
// Each ProvablyRisky must be named by the expected floor, only ever prove
// a node whose full σ is above the limit, and evalNode must match the full
// NodeRisk decision.
func TestRiskFloorsAtTheBound(t *testing.T) {
	limit := 0.5 + sigmaTolerance
	edgeA := 100 * (1 + 2*limit*math.Sqrt(6))
	edgeB := 100 * (1 + 2*limit*math.Sqrt(4))
	const epoch = 1.7e9
	margin := func(f float64) float64 { return 1e-9 * (epoch + f) }
	job := func(id int, work, deadline float64) workload.Job {
		return workload.Job{ID: id, Runtime: work, TraceEstimate: work, NumProc: 1, Deadline: deadline}
	}
	onTime := job(2, 1, 1e5)
	doomed := func(b float64) []workload.Job { return []workload.Job{job(1, b, 100), onTime} }
	small := func(float64) []workload.Job { return []workload.Job{onTime} }
	// shared returns two residents due in 100 and 200 s, each of weight
	// k/2 unless MaxWeight caps it.
	shared := func(k float64) []workload.Job {
		return []workload.Job{job(1, 50*k, 100), job(3, 100*k, 200)}
	}
	const candWeight = 1e-5 // a 1 s candidate due in 1e5 s
	overload := func(speed, by float64) float64 { return (speed - candWeight) * (1 + by) }
	// tailFor returns the second resident's work beside one of 60 s due
	// in 100, such that the first holds left seconds of work at its
	// crossing.
	tailFor := func(left float64) []workload.Job {
		x := 60/(60-left) - 0.6 - candWeight
		return []workload.Job{job(1, 60, 100), job(3, 200*x, 200)}
	}
	for _, tc := range []struct {
		name          string
		origin, speed float64
		maxWeight     float64
		thr           float64
		jobs          []workload.Job
		candWork      float64
		candIn        float64 // the candidate's deadline, relative to now
		after         float64 // now − lastT
		want          cluster.RiskFloor
		suitable      bool
	}{
		{"(a) beyond", 0, 1, 0.3, 0.5, doomed(edgeA + 0.01), 1, 1e5, 0, cluster.FloorDoomed, false},
		{"(a) inside", 0, 1, 0.3, 0.5, doomed(edgeA - 0.01), 1, 1e5, 0, cluster.NotProven, false},
		{"(a) straggler beyond", 0, 0.5, 0.3, 0.5, doomed((edgeA + 0.01) / 2), 1, 1e5, 0, cluster.FloorDoomed, false},
		{"(a) straggler inside", 0, 0.5, 0.3, 0.5, doomed((edgeA - 0.01) / 2), 1, 1e5, 0, cluster.NotProven, false},
		{"(a) beyond, 50 s into the version", 0, 1, 0.3, 0.5, doomed(edgeA + 0.01), 1, 1e5, 50, cluster.FloorDoomed, false},
		{"(a) beyond at 1.7e9", epoch, 1, 0.3, 0.5, doomed(edgeA + margin(edgeA) + 0.01), 1, 1e5, 0, cluster.FloorDoomed, false},
		{"(a) inside at 1.7e9", epoch, 1, 0.3, 0.5, doomed(edgeA + margin(edgeA) - 0.01), 1, 1e5, 0, cluster.NotProven, false},
		{"(b) beyond", 0, 1, 0.3, 0.5, small(0), edgeB + 0.01, 100, 0, cluster.FloorCandidate, false},
		{"(b) inside", 0, 1, 0.3, 0.5, small(0), edgeB - 0.01, 100, 0, cluster.NotProven, false},
		{"(b) straggler beyond", 0, 0.5, 0.3, 0.5, small(0), (edgeB + 0.01) / 2, 100, 0, cluster.FloorCandidate, false},
		{"(b) straggler inside", 0, 0.5, 0.3, 0.5, small(0), (edgeB - 0.01) / 2, 100, 0, cluster.NotProven, false},
		{"(b) beyond at 1.7e9", epoch, 1, 0.3, 0.5, small(0), edgeB + margin(edgeB) + 0.01, 100, 0, cluster.FloorCandidate, false},
		{"(b) inside at 1.7e9", epoch, 1, 0.3, 0.5, small(0), edgeB + margin(edgeB) - 0.01, 100, 0, cluster.NotProven, false},
		{"(c) beyond", 0, 1, 1, 0, shared(overload(1, 1e-6)), 1, 1e5, 0, cluster.FloorCrossing, false},
		{"(c) inside", 0, 1, 1, 0, shared(overload(1, -1e-6)), 1, 1e5, 0, cluster.NotProven, true},
		{"(c) straggler beyond", 0, 0.5, 1, 0, shared(overload(0.5, 1e-6)), 1, 1e5, 0, cluster.FloorCrossing, false},
		{"(c) straggler inside", 0, 0.5, 1, 0, shared(overload(0.5, -1e-6)), 1, 1e5, 0, cluster.NotProven, true},
		{"(c) capped beyond", 0, 1, overload(1, 1e-6) / 2, 0, shared(1.8), 1, 1e5, 0, cluster.FloorCrossing, false},
		{"(c) capped inside", 0, 1, overload(1, -1e-6) / 2, 0, shared(1.8), 1, 1e5, 0, cluster.NotProven, false},
		{"(c) capped beyond at 1.7e9", epoch, 1, overload(1, 1e-6) / 2, 0, shared(1.8), 1, 1e5, 0, cluster.FloorCrossing, false},
		{"(c) beyond at 1.7e9", epoch, 1, 1, 0, tailFor(1.75), 1, 1e5, 0, cluster.FloorCrossing, false},
		{"(c) inside at 1.7e9", epoch, 1, 1, 0, tailFor(1.65), 1, 1e5, 0, cluster.NotProven, false},
		{"(c) off for an overdue candidate", 0, 1, 1, 0, shared(1.2), 1, -1, 0, cluster.FloorCandidate, false},
		{"(c) off once a resident may have run out", 0, 1, 1, 0, []workload.Job{
			{ID: 1, Runtime: 1000, TraceEstimate: 25, NumProc: 1, Deadline: 50}, job(3, 400, 1000),
		}, 1.9, 2, 46, cluster.NotProven, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, node := floorNode(t, tc.origin, tc.speed, tc.maxWeight, tc.jobs)
			p.SigmaThreshold = tc.thr
			limit := tc.thr + sigmaTolerance
			now := tc.origin + tc.after
			cand := &cluster.Candidate{JobID: 9, RefWork: tc.candWork, AbsDeadline: now + tc.candIn}
			_, wantSigma := p.NodeRisk(now, node, cand)
			if suitable := wantSigma <= limit; suitable != tc.suitable {
				t.Fatalf("full σ = %v: suitable = %v, want %v", wantSigma, suitable, tc.suitable)
			}
			proven := node.ProvablyRisky(now, cand, limit)
			if proven && wantSigma <= limit {
				t.Fatalf("proven risky by floor %d, but the full σ = %v is suitable", node.ProvenBy(), wantSigma)
			}
			if got := node.ProvenBy(); got != tc.want || proven != (tc.want != cluster.NotProven) {
				t.Fatalf("ProvablyRisky = %v by floor %d, want floor %d (full σ = %v)", proven, got, tc.want, wantSigma)
			}
			if _, _, suitable, _ := p.evalNode(now, node, cand, false); suitable != (wantSigma <= limit) {
				t.Fatalf("evalNode suitable = %v, full σ = %v", suitable, wantSigma)
			}
		})
	}
}

// TestEvalNodeDoomedAllocFree guards exit (5)'s hot path: once a doomed
// node's summary is built, evaluating it again allocates nothing.
func TestEvalNodeDoomedAllocFree(t *testing.T) {
	p, node := overdueNode(t, 60, []workload.Job{{ID: 1, Runtime: 200, TraceEstimate: 50, NumProc: 1, Deadline: 50}})
	cand := &cluster.Candidate{JobID: 2, RefWork: 5, AbsDeadline: 1000}
	if !node.ProvablyRisky(60, cand, sigmaTolerance) {
		t.Fatal("the node is not proven risky")
	}
	if _, _, suitable, _ := p.evalNode(60, node, cand, false); suitable {
		t.Fatal("the doomed node is suitable")
	}
	if n := testing.AllocsPerRun(100, func() { p.evalNode(60, node, cand, false) }); n != 0 {
		t.Fatalf("evalNode on a doomed node: %v allocs, want 0", n)
	}
}

// earliestNode returns a one-node LibraRisk harness at t = 0 whose node,
// on the given share convention and speed, holds the given jobs, each
// submitted at t = 0 with its estimate.
func earliestNode(t *testing.T, strict bool, speed float64, jobs []workload.Job) (*LibraRisk, *cluster.PSNode) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.WorkConserving = !strict
	c, err := cluster.NewTimeShared(1, 168, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	if speed != 1 {
		c.SetNodeSpeed(e, 0, speed)
	}
	for _, j := range jobs {
		if _, err := c.Submit(e, j, j.TraceEstimate, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	return NewLibraRisk(c, metrics.NewRecorder()), c.Node(0)
}

// TestEarliestFinishExitAtTheBound pins exit (6)'s edge on hand-built
// nodes evaluated at now = 0. A resident with b s of believed work at speed
// s cannot retire before b/s, so with deadline 100 its eq. (4) value is at
// least b/(100·s). Beside it sit on-time items of value 1, the candidate
// among them, so at SigmaThreshold 0.5 with three items the bound stops the
// simulation once b/(100·s) − 1 clears 2·limit·√(2·3) ≈ 2.45. The
// prediction folds that bound at the resident's deadline crossing, the end
// of the first step; before the first step it folds none, because exit
// (5), which the policy asks first, proves such a node risky through its
// doomed-resident floor:
//
//   - "beyond" and "inside": the resident's bound 0.01 s beyond and inside
//     that, at full speed and on a straggler at speed 0.5;
//   - strict shares, where the node may idle, so no horizon bounds the
//     on-time items' values and only the lateness half may fire: beyond
//     the bound it fires only once an on-time item has retired, which an
//     exhausted resident does at now; exit (5) proves neither;
//   - "crossing", under the paper's zero-σ rule: the candidate is on time
//     alone but not beside a resident demanding a full processor. Exit (6)
//     must stop at the end of the first step, its deadline crossing, with
//     no verdict yet; without the crossing fold the run goes on to the
//     candidate's retirement, and the retirement rule alone to the
//     resident's. Exit (5) proves it through the overloaded node's first
//     crossing.
//
// Each decision must match the full NodeRisk, a stop must come at the
// named step (−1: not before the first step), and exit (5) must prove
// exactly the named nodes.
func TestEarliestFinishExitAtTheBound(t *testing.T) {
	limit := 0.5 + sigmaTolerance
	edge := 100 * (1 + 2*limit*math.Sqrt(6))
	late := func(b float64) workload.Job {
		return workload.Job{ID: 1, Runtime: b, TraceEstimate: b, NumProc: 1, Deadline: 100}
	}
	onTime := workload.Job{ID: 2, Runtime: 1, TraceEstimate: 1, NumProc: 1, Deadline: 1e5}
	exhausted := workload.Job{ID: 2, Runtime: 1, TraceEstimate: 1e-10, NumProc: 1, Deadline: 1e5}
	small := &cluster.Candidate{JobID: 3, RefWork: 1, AbsDeadline: 1e5}
	for _, tc := range []struct {
		name     string
		strict   bool
		speed    float64
		thr      float64
		jobs     []workload.Job
		cand     *cluster.Candidate
		stopStep int  // step the bounded run stops at; −1: not before the first
		verdicts int  // verdicts produced before a stop
		proven   bool // exit (5) proves the node risky
	}{
		{"beyond", false, 1, 0.5, []workload.Job{late(edge + 0.01), onTime}, small, 1, 0, true},
		{"inside", false, 1, 0.5, []workload.Job{late(edge - 0.01), onTime}, small, -1, 0, false},
		{"straggler beyond", false, 0.5, 0.5, []workload.Job{late((edge + 0.01) / 2), onTime}, small, 1, 0, true},
		{"straggler inside", false, 0.5, 0.5, []workload.Job{late((edge - 0.01) / 2), onTime}, small, -1, 0, false},
		{"strict beyond", true, 1, 0.5, []workload.Job{late(edge + 0.01), onTime}, small, -1, 0, false},
		{"strict beside an exhausted resident", true, 1, 0.5, []workload.Job{late(edge + 0.01), exhausted}, small, 1, 1, false},
		{"crossing", false, 1, 0, []workload.Job{{ID: 1, Runtime: 1000, TraceEstimate: 1000, NumProc: 1, Deadline: 1001}},
			&cluster.Candidate{JobID: 3, RefWork: 0.5, AbsDeadline: 1}, 1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, node := earliestNode(t, tc.strict, tc.speed, tc.jobs)
			p.SigmaThreshold = tc.thr
			limit := tc.thr + sigmaTolerance
			_, wantSigma := p.NodeRisk(0, node, tc.cand)
			partial, ok := node.PredictDelaysWithin(0, tc.cand, limit)
			switch steps := node.PredictSteps(); {
			case !ok && wantSigma <= limit:
				t.Fatalf("stopped at step %d, but the full σ = %v is suitable", steps, wantSigma)
			case tc.stopStep < 0 && !ok && steps == 0:
				t.Fatalf("stopped before the first step (full σ = %v), want no stop there", wantSigma)
			case tc.stopStep >= 0 && (ok || steps != tc.stopStep):
				t.Fatalf("ok = %v at step %d (full σ = %v), want a stop at step %d", ok, steps, wantSigma, tc.stopStep)
			case tc.stopStep >= 0 && len(partial) != tc.verdicts:
				t.Fatalf("stopped with %d verdicts %+v, want %d", len(partial), partial, tc.verdicts)
			}
			switch proven := node.ProvablyRisky(0, tc.cand, limit); {
			case proven && wantSigma <= limit:
				t.Fatalf("exit (5) proved risky by floor %d, but the full σ = %v is suitable", node.ProvenBy(), wantSigma)
			case proven != tc.proven:
				t.Fatalf("exit (5) proved risky = %v, want %v", proven, tc.proven)
			}
			if _, _, suitable, _ := p.evalNode(0, node, tc.cand, false); suitable != (wantSigma <= limit) {
				t.Fatalf("evalNode suitable = %v, full σ = %v", suitable, wantSigma)
			}
		})
	}
}
