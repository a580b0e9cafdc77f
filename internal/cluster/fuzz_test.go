package cluster

import (
	"testing"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// FuzzPredictWithinMatchesNaive pins the bounded fast predictor to the
// naive reference (predictDelaysNaive) on fuzzed nodes (see fuzzNode) with a fuzzed candidate and limit. When PredictDelaysWithin
// completes its verdicts must equal the naive ones exactly; it may stop
// early only when the naive σ of the eq. (4) values exceeds limit, and
// the verdicts it did produce must still be the naive ones.
func FuzzPredictWithinMatchesNaive(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint16(0), uint16(0), uint16(100), uint16(400), false, uint8(0))
	f.Add([]byte{25, 64, 32, 0}, uint8(0), uint8(0), uint16(0), uint16(0), uint16(50), uint16(300), false, uint8(0))
	f.Add([]byte{50, 16, 40, 0, 75, 70, 20, 10, 37, 64, 100, 5, 99, 10, 60, 0}, uint8(0), uint8(0), uint16(120), uint16(0), uint16(250), uint16(450), false, uint8(0))
	f.Add([]byte{50, 16, 40, 0, 75, 70, 20, 10, 37, 64, 100, 5}, uint8(40), uint8(30), uint16(200), uint16(50), uint16(80), uint16(90), true, uint8(0))
	f.Add([]byte{200, 255, 0, 0, 20, 8, 255, 63, 120, 30, 16, 2}, uint8(150), uint8(0), uint16(60), uint16(1000), uint16(0), uint16(0), false, uint8(0))
	f.Add([]byte{10, 64, 16, 0, 10, 64, 16, 0, 10, 64, 16, 0}, uint8(0), uint8(0), uint16(5), uint16(0), uint16(40), uint16(0), false, uint8(0))
	f.Fuzz(func(t *testing.T, jobs []byte, speedPct, maxWeightPct uint8, elapsed, limitMilli, candWork, candSlack uint16, strict bool, origin uint8) {
		n, now := fuzzNode(t, jobs, speedPct, maxWeightPct, elapsed, strict, origin)
		var cand *Candidate
		if candWork > 0 {
			cand = &Candidate{JobID: 1000, RefWork: float64(candWork % 2000), AbsDeadline: now + float64(candSlack%3000)}
		}
		limit := float64(limitMilli) / 1000

		want := n.predictDelaysNaive(now, cand)
		got, ok := n.PredictDelaysWithin(now, cand, limit)
		if ok && len(got) != len(want) {
			t.Fatalf("%d verdicts, naive has %d", len(got), len(want))
		}
		byJob := make(map[int]PredictedDelay, len(want))
		for _, pd := range want {
			byJob[pd.JobID] = pd
		}
		for i, pd := range got {
			if w := byJob[pd.JobID]; pd != w || (ok && pd != want[i]) {
				t.Fatalf("verdict %d = %+v, naive %+v (ok=%v)", i, pd, w, ok)
			}
		}
		if !ok {
			var w sim.Welford
			for _, pd := range want {
				w.Add(DeadlineDelay(pd.Delay, pd.AbsDeadline-now))
			}
			if sigma := w.StdDevPop(); !(sigma > limit) {
				t.Fatalf("stopped early at limit %g, but the naive σ is %g", limit, sigma)
			}
		}
	})
}

// FuzzProvablyRisky holds exit (5), every floor of it, to the naive
// reference: on a fuzzed node (the fuzzNode builder) with a fuzzed
// candidate, whose deadline may already have passed, and a fuzzed limit,
// whenever ProvablyRisky says risky the naive predictor's σ of the eq. (4)
// values must exceed limit.
func FuzzProvablyRisky(f *testing.F) {
	f.Add([]byte{50, 16, 40, 0, 75, 70, 20, 10, 37, 64, 100, 5, 99, 10, 60, 0}, uint8(0), uint8(0), uint16(1200), uint16(0), uint16(400), int16(800), false, uint8(0))
	f.Add([]byte{50, 16, 40, 0, 75, 70, 20, 10, 37, 64, 100, 5}, uint8(40), uint8(30), uint16(900), uint16(50), uint16(80), int16(-90), false, uint8(0))
	f.Add([]byte{200, 8, 0, 0, 20, 8, 255, 63, 120, 30, 16, 2}, uint8(150), uint8(0), uint16(1500), uint16(500), uint16(9000), int16(-4000), false, uint8(0))
	f.Add([]byte{10, 4, 16, 0, 10, 64, 16, 0, 10, 4, 16, 0}, uint8(0), uint8(0), uint16(300), uint16(0), uint16(40), int16(0), true, uint8(0))
	f.Add([]byte{30, 2, 0, 0}, uint8(0), uint8(0), uint16(400), uint16(500), uint16(3), int16(-2000), false, uint8(0))
	// Floors (a), (b) and (c) in turn, first from origins 0, 2^20 and 2^30,
	// then from 1.7e9 (see ProvenBy).
	f.Add([]byte{164, 207, 250, 70, 197, 246, 12, 69}, uint8(42), uint8(0), uint16(434), uint16(0), uint16(190), int16(-348), false, uint8(0))
	f.Add([]byte{104, 182, 38, 131, 43, 5, 113, 151, 253, 225, 149, 27, 198, 95, 95, 174}, uint8(0), uint8(0), uint16(373), uint16(314), uint16(3607), int16(500), false, uint8(1))
	f.Add([]byte{64, 33, 250, 80, 82, 149, 178, 228, 225, 46, 21, 237}, uint8(0), uint8(78), uint16(74), uint16(33), uint16(3543), int16(5809), false, uint8(2))
	f.Add([]byte{249, 78, 113, 226, 13, 254, 108, 47, 185, 84, 5, 104, 40, 89, 112, 178}, uint8(166), uint8(0), uint16(80), uint16(0), uint16(3050), int16(4477), false, uint8(3))
	f.Add([]byte{217, 45, 174, 117, 129, 26, 71, 138}, uint8(0), uint8(0), uint16(493), uint16(0), uint16(487), int16(-97), false, uint8(3))
	f.Add([]byte{16, 24, 189, 41, 187, 35, 3, 233, 68, 178, 186, 4, 248, 180, 101, 14, 134, 126, 48, 151}, uint8(0), uint8(0), uint16(287), uint16(0), uint16(2759), int16(5979), false, uint8(3))
	f.Fuzz(func(t *testing.T, jobs []byte, speedPct, maxWeightPct uint8, elapsed, limitMilli, candWork uint16, candOffset int16, strict bool, origin uint8) {
		n, now := fuzzNode(t, jobs, speedPct, maxWeightPct, elapsed, strict, origin)
		cand := &Candidate{JobID: 1000, RefWork: float64(candWork) / 4, AbsDeadline: now + float64(candOffset)/8}
		limit := float64(limitMilli) / 1000
		if !n.ProvablyRisky(now, cand, limit) {
			return
		}
		var w sim.Welford
		for _, pd := range n.predictDelaysNaive(now, cand) {
			w.Add(DeadlineDelay(pd.Delay, pd.AbsDeadline-now))
		}
		if sigma := w.StdDevPop(); !(sigma > limit) {
			t.Fatalf("ProvablyRisky at limit %g, but the naive σ is %g", limit, sigma)
		}
	})
}

// FuzzProvablySafe holds exit (7) to the naive reference: on a fuzzed
// node carrying a fuzzed bulk of slices beside the fuzzNode ones, with a
// fuzzed candidate, whenever ProvablySafe says safe every eq. (4) value
// of the naive predictor must be 1 to within 1e-12, so its σ is within
// any limit the σ rule uses. The bulk reaches the slice counts and the
// epoch-scale origin where rounding, not the model, would break the proof.
func FuzzProvablySafe(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(40), int32(80000), false, uint8(0))
	f.Add([]byte{50, 16, 40, 0, 75, 70, 20, 10}, uint16(0), uint8(0), uint8(0), uint8(0), uint16(300), uint16(200), int32(900000), false, uint8(0))
	f.Add([]byte{10, 64, 16, 0, 10, 64, 16, 0}, uint16(3), uint8(60), uint8(80), uint8(0), uint16(50), uint16(40), int32(40000), false, uint8(3))
	// At k ≥ 256, from origin 0 and from 1.7e9: a light load; the bulk's
	// weights just under the margin (load 174) and just over the node's
	// speed (176), at 1024 slices; a degraded node with a weight cap.
	f.Add([]byte{}, uint16(256), uint8(40), uint8(0), uint8(0), uint16(0), uint16(97), int32(20000000), false, uint8(0))
	f.Add([]byte{}, uint16(256), uint8(40), uint8(0), uint8(0), uint16(0), uint16(97), int32(20000000), false, uint8(3))
	f.Add([]byte{}, uint16(1024), uint8(174), uint8(0), uint8(0), uint16(600), uint16(40), int32(5000000), false, uint8(3))
	f.Add([]byte{}, uint16(1024), uint8(176), uint8(0), uint8(0), uint16(600), uint16(40), int32(5000000), false, uint8(3))
	f.Add([]byte{30, 8, 60, 5}, uint16(700), uint8(100), uint8(70), uint8(60), uint16(100), uint16(25), int32(3000000), false, uint8(3))
	f.Fuzz(func(t *testing.T, jobs []byte, bulk uint16, load, speedPct, maxWeightPct uint8, elapsed, candWork uint16, candOffset int32, strict bool, origin uint8) {
		n, now := fuzzNodeBulk(t, jobs, int(bulk%1025), load, speedPct, maxWeightPct, elapsed, strict, origin)
		cand := &Candidate{JobID: 1_000_000, RefWork: float64(candWork) / 4, AbsDeadline: now + float64(candOffset)/8}
		if !n.ProvablySafe(now, cand) {
			return
		}
		for _, pd := range n.predictDelaysNaive(now, cand) {
			if v := DeadlineDelay(pd.Delay, pd.AbsDeadline-now); !(v <= 1+1e-12) {
				t.Fatalf("ProvablySafe with %d slices, but the naive value of job %d is %v (finish %v, deadline %v)", n.NumSlices(), pd.JobID, v, pd.Finish, pd.AbsDeadline)
			}
		}
	})
}

// fuzzOrigins are the instants a fuzzed node's clock may start at: zero,
// and epoch-scale values where a float64 instant has a coarse ulp
// (2.4e-7 s at 1.7e9), so both early exits' margins are checked where
// absolute guards alone would fail.
var fuzzOrigins = [...]float64{0, 1 << 20, 1 << 30, 1.7e9}

// fuzzNode builds one node from fuzzed bytes: each 4-byte group of jobs
// is one slice — runtime, estimate (under-estimates overrun), relative
// deadline, and the gap before it arrives — run on a node with a fuzzed
// speed, MaxWeight cap and share convention, from the fuzzed time origin
// until elapsed seconds after the last arrival, which is the instant it
// returns.
func fuzzNode(t *testing.T, jobs []byte, speedPct, maxWeightPct uint8, elapsed uint16, strict bool, origin uint8) (n *PSNode, now float64) {
	t.Helper()
	return fuzzNodeBulk(t, jobs, 0, 0, speedPct, maxWeightPct, elapsed, strict, origin)
}

// fuzzNodeBulk is fuzzNode with bulk more slices placed at the origin,
// before the fuzzed ones arrive: slice i has work 1 + (37·i mod 97)
// seconds and a relative deadline such that the bulk's Libra weights sum
// to about (load+1)/128·0.73 at the origin, spread over i mod 7.
func fuzzNodeBulk(t *testing.T, jobs []byte, bulk int, load, speedPct, maxWeightPct uint8, elapsed uint16, strict bool, origin uint8) (n *PSNode, now float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WorkConserving = !strict
	if maxWeightPct > 0 {
		cfg.MaxWeight = float64(maxWeightPct%100+1) / 100
	}
	c, err := NewTimeShared(1, 168, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	e.MaxEvents = 1_000_000
	runTo := func(at float64) {
		e.SetHorizon(at)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTo(at)
	}
	now = fuzzOrigins[int(origin)%len(fuzzOrigins)]
	runTo(now)
	if speedPct > 0 {
		c.SetNodeSpeed(e, 0, float64(speedPct)/100)
	}
	for i := 1; i <= bulk; i++ {
		work := float64(1 + 37*i%97)
		j := workload.Job{
			ID: 100 + i, Submit: now, Runtime: work, TraceEstimate: work, NumProc: 1,
			Deadline: work * float64(bulk) * 128 / float64(int(load)+1) * float64(7+i%7) / 7,
		}
		if _, err := c.Submit(e, j, work, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if len(jobs) > 48 {
		jobs = jobs[:48] // 12 slices: past that the predictor's per-node cost is all the fuzzer would measure
	}
	for i := 0; i+4 <= len(jobs); i += 4 {
		b := jobs[i : i+4]
		now += float64(b[3] % 64)
		runTo(now)
		runtime := 1 + float64(b[0])*4
		estimate := runtime * float64(1+int(b[1])) / 64
		j := workload.Job{
			ID: i/4 + 1, Submit: now, Runtime: runtime, TraceEstimate: estimate,
			NumProc: 1, Deadline: runtime * float64(16+int(b[2])) / 32,
		}
		if _, err := c.Submit(e, j, estimate, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	now += float64(elapsed % 2000)
	runTo(now)
	return c.Node(0), now
}
