package sched

import (
	"fmt"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// TestSubmitReturnsRecordedDecision pins Submit's return against the
// recorder, the source of truth before Submit returned anything. For every
// policy name and several seeds, each arrival of a generated stream is
// submitted on its own after the engine has run to its submit time, and
// Submit must report a rejection, with the recorded reason, exactly when
// the recorder gained one for that job during the call. The queueing
// policies reject lazily, so this covers the rejections the dispatch pass
// an arrival triggers makes on the arriving job itself.
func TestSubmitReturnsRecordedDecision(t *testing.T) {
	const nodes = 32
	ratings := make([]float64, nodes)
	for i := range ratings {
		ratings[i] = workload.SDSCSP2Rating
	}
	for _, seed := range []uint64{1, 2, 3} {
		gen := workload.DefaultGeneratorConfig()
		gen.Jobs, gen.Seed, gen.MaxProcs = 600, seed, nodes
		jobs, err := workload.Generate(gen)
		if err != nil {
			t.Fatal(err)
		}
		dl := workload.DefaultDeadlineConfig()
		dl.Seed = seed
		if jobs, err = workload.AssignDeadlines(jobs, dl); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"edf", "libra", "librarisk", "fcfs", "backfill-easy", "backfill-conservative", "backfill-edf", "qops"} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rec := metrics.NewRecorder()
				pol, _, _, err := NewPolicy(name, PolicyParams{}, ratings, cluster.DefaultConfig(), rec)
				if err != nil {
					t.Fatal(err)
				}
				eng := sim.NewEngine()
				rejected := 0
				for _, j := range jobs {
					if j.Submit > eng.Now() {
						eng.SetHorizon(j.Submit)
						if err := eng.Run(); err != nil {
							t.Fatal(err)
						}
						eng.AdvanceTo(j.Submit)
					}
					n0 := len(rec.Results())
					accepted, reason := pol.Submit(eng, j, j.EstimateAt(100))
					wantAccepted, wantReason := true, ""
					for _, r := range rec.Results()[n0:] {
						if r.JobID == j.ID && r.Outcome == metrics.Rejected {
							wantAccepted, wantReason = false, r.Reason
						}
					}
					if accepted != wantAccepted || reason != wantReason {
						t.Fatalf("job %d: Submit = (%v, %q), recorder says (%v, %q)", j.ID, accepted, reason, wantAccepted, wantReason)
					}
					if !accepted {
						rejected++
					}
				}
				t.Logf("%d of %d rejected at submit", rejected, len(jobs))
				// No job outgrows the cluster, so every EDF-ordered
				// rejection at submit came from the dispatch pass.
				if rejected == 0 && (name == "edf" || name == "backfill-edf") {
					t.Fatal("no dispatch-time rejection at submit: the check is vacuous")
				}
			})
		}
	}
}
