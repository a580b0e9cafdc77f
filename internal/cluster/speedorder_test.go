package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// referencePickFree is pickFree as it was before SpaceShared kept its
// speed order: collect the idle up nodes and sort them, fastest effective
// rating first, ties by ascending id. It is the oracle of
// TestSpaceSharedSpeedOrderMatchesSort and FuzzSpaceSharedPick.
func referencePickFree(c *SpaceShared, numproc int) []int {
	if numproc <= 0 || numproc > c.free {
		return nil
	}
	var ids []int
	for i, b := range c.busy {
		if !b && !c.down[i] {
			ids = append(ids, i)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		if ra, rb := c.effRating(a), c.effRating(b); ra != rb {
			return cmp.Compare(rb, ra)
		}
		return a - b
	})
	return ids[:numproc]
}

// referenceBestPossibleRuntime is BestPossibleRuntime as it was before the
// speed order: sort every up node's effective rating, fastest first, and
// run at the numproc-th. numproc must be positive.
func referenceBestPossibleRuntime(c *SpaceShared, refSeconds float64, numproc int) (float64, bool) {
	var sorted []float64
	for i := range c.ratings {
		if !c.down[i] {
			sorted = append(sorted, c.effRating(i))
		}
	}
	if numproc > len(sorted) {
		return 0, false
	}
	slices.SortFunc(sorted, func(a, b float64) int { return cmp.Compare(b, a) })
	slowest := sorted[numproc-1]
	return refSeconds * c.cfg.RefRating / slowest, true
}

// Ratings and speed factors chosen so that effective ratings tie often:
// 84·2 = 168·1 = 336·0.5, 168·0.5 = 336·0.25 = 84·1.
var (
	pickRatings = []float64{84, 168, 168, 252, 336}
	pickFactors = []float64{1, 0.5, 2, 0.25, 0.75, 1}
)

// runPickScript builds a space-shared cluster with one node per byte of
// ratings (at most 16; an empty slice gives one node) and applies ops as
// (op, a, b) triples — set a node's speed (back to 1 included), crash it,
// repair it, start a gang, finish the next job, reset — comparing
// pickFree, RuntimeOn and BestPossibleRuntime with the sorting references
// after every step, and every Start's gang with referencePickFree.
func runPickScript(t *testing.T, ratings, ops []byte) {
	n := min(max(len(ratings), 1), 16)
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = 168
		if i < len(ratings) {
			rs[i] = pickRatings[int(ratings[i])%len(pickRatings)]
		}
	}
	c, err := NewSpaceSharedHetero(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	check := func(step int) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for k := 0; k <= n+1; k++ {
			want := referencePickFree(c, k)
			if got := c.pickFree(k); !slices.Equal(got, want) {
				t.Fatalf("step %d: pickFree(%d) = %v, reference %v", step, k, got, want)
			}
			if k == 0 {
				continue
			}
			gotRT, gotOK := c.RuntimeOn(1000, k)
			var wantRT float64
			if want != nil {
				wantRT = c.gangRuntime(1000, want)
			}
			if gotOK != (want != nil) || math.Float64bits(gotRT) != math.Float64bits(wantRT) {
				t.Fatalf("step %d: RuntimeOn(1000, %d) = %v, %v; reference %v, %v", step, k, gotRT, gotOK, wantRT, want != nil)
			}
			gotBest, gotOK := c.BestPossibleRuntime(1000, k)
			wantBest, wantOK := referenceBestPossibleRuntime(c, 1000, k)
			if gotOK != wantOK || math.Float64bits(gotBest) != math.Float64bits(wantBest) {
				t.Fatalf("step %d: BestPossibleRuntime(1000, %d) = %v, %v; reference %v, %v", step, k, gotBest, gotOK, wantBest, wantOK)
			}
		}
	}
	check(-1)
	jobID := 0
	for step := 0; step+2 < len(ops); step += 3 {
		op, a, b := ops[step]%6, int(ops[step+1]), int(ops[step+2])
		id := a % n
		switch op {
		case 0:
			c.SetNodeSpeed(e, id, pickFactors[b%len(pickFactors)])
		case 1:
			c.SetNodeDown(e, id, true)
		case 2:
			c.SetNodeDown(e, id, false)
		case 3:
			jobID++
			numproc := 1 + b%n
			runtime := float64(1 + a)
			want := slices.Clone(referencePickFree(c, numproc))
			j := workload.Job{ID: jobID, Submit: e.Now(), Runtime: runtime, TraceEstimate: runtime, NumProc: numproc, Deadline: 1e9}
			rj, err := c.Start(e, j, runtime)
			switch {
			case want == nil && err == nil:
				t.Fatalf("step %d: Start(%d procs) succeeded, reference finds no gang", step, numproc)
			case want != nil && err != nil:
				t.Fatalf("step %d: Start(%d procs): %v, reference gang %v", step, numproc, err, want)
			case want != nil && !slices.Equal(rj.NodeIDs, want):
				t.Fatalf("step %d: Start(%d procs) took %v, reference %v", step, numproc, rj.NodeIDs, want)
			}
		case 4:
			if _, err := e.Step(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 5:
			e.Reset()
			c.Reset()
		}
		check(step)
	}
}

// TestSpaceSharedSpeedOrderMatchesSort drives seeded random scripts over
// heterogeneous clusters with tied ratings through runPickScript: the kept
// speed order must choose and price exactly what sorting on every call
// did.
func TestSpaceSharedSpeedOrderMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRNG(seed)
		ratings := make([]byte, 1+r.Intn(12))
		for i := range ratings {
			ratings[i] = byte(r.Intn(256))
		}
		ops := make([]byte, 3*(20+r.Intn(60)))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runPickScript(t, ratings, ops) })
	}
}

// FuzzSpaceSharedPick runs runPickScript on fuzzed clusters and scripts.
func FuzzSpaceSharedPick(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4}, []byte{3, 10, 1, 0, 4, 1, 3, 20, 2, 4, 0, 0})
	f.Add([]byte{4, 1, 0, 2}, []byte{0, 0, 1, 0, 3, 2, 3, 5, 3, 1, 1, 0, 2, 1, 0, 0, 0, 0, 5, 0, 0, 3, 7, 1})
	f.Add([]byte{1, 2, 1, 2, 4, 4, 0, 0}, []byte{0, 4, 1, 0, 6, 2, 0, 0, 3, 3, 9, 2, 1, 4, 0, 4, 0, 0, 0, 4, 0, 3, 1, 7})
	f.Fuzz(func(t *testing.T, ratings, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		runPickScript(t, ratings, ops)
	})
}
