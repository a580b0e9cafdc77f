package core

import (
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// TestServeScanFastPathsMatchReference is the decision differential at the
// daemon's scale: a serve_scan-shaped stream (512 nodes, jobs of up to 128
// processors, arrivals compressed to 2 %, the trace's own inaccurate
// estimates, seed 1) goes through LibraRisk once with every fast path and
// once with DisableFastPath, advancing the engine to each arrival the way
// the daemon applies an op. Every (accepted, reason) must be equal. Past
// the first 1500 arrivals, which the benchmark runs untimed to fill the
// cluster, the fast run also asks PSNode.ProvablyRisky about every busy
// node at every arrival, and exit (5) must prove at least half of them
// risky: at this shape most busy nodes hold an overdue exhausted slice.
func TestServeScanFastPathsMatchReference(t *testing.T) {
	const (
		nodes   = 512
		ops     = 3000
		preload = 1500 // the benchmark's untimed warm-up
	)
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Jobs, gcfg.Seed, gcfg.MaxProcs = ops, 1, 128
	jobs, err := workload.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := workload.DefaultDeadlineConfig()
	dcfg.Seed = 2
	if jobs, err = workload.AssignDeadlines(jobs, dcfg); err != nil {
		t.Fatal(err)
	}
	workload.ScaleArrivalsInPlace(jobs, 0.02)

	type decision struct {
		accepted bool
		reason   string
	}
	var busy, proven int
	run := func(disable bool) []decision {
		c, err := cluster.NewTimeShared(nodes, 168, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := NewLibraRisk(c, metrics.NewRecorder())
		p.DisableFastPath = disable
		e := sim.NewEngine()
		out := make([]decision, len(jobs))
		for i, j := range jobs {
			if j.Submit > e.Now() {
				e.SetHorizon(j.Submit)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				e.AdvanceTo(j.Submit)
			}
			estimate := j.EstimateAt(100)
			if !disable && i >= preload {
				cand := &cluster.Candidate{JobID: j.ID, RefWork: estimate, AbsDeadline: j.AbsDeadline()}
				for n := 0; n < c.Len(); n++ {
					if node := c.Node(n); node.NumSlices() > 0 {
						busy++
						if node.ProvablyRisky(e.Now(), cand, p.SigmaThreshold+sigmaTolerance) {
							proven++
						}
					}
				}
			}
			out[i].accepted, out[i].reason = p.Submit(e, j, estimate)
		}
		return out
	}
	want, got := run(true), run(false)
	accepted := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d (job %d): fast paths decide %+v, reference %+v", i, jobs[i].ID, got[i], want[i])
		}
		if got[i].accepted {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(jobs) {
		t.Fatalf("%d of %d accepted: the stream does not exercise both outcomes", accepted, len(jobs))
	}
	if 2*proven < busy {
		t.Fatalf("exit (5) proved %d of %d busy-node evaluations risky, want at least half", proven, busy)
	}
	t.Logf("%d of %d accepted; exit (5) proved %d of %d busy-node evaluations risky (%.1f %%)",
		accepted, len(jobs), proven, busy, 100*float64(proven)/float64(busy))
}
