package core

import (
	"sync"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

func midWorkload(t *testing.T) []workload.Job {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.Jobs = 400
	cfg.MaxProcs = 16
	cfg.MeanInterarrival = 1200
	cfg.MeanRuntime = 4000
	cfg.MaxRuntime = 20000
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = workload.AssignDeadlines(jobs, workload.DefaultDeadlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestConcurrentSimulationsAreIsolated runs many identical simulations in
// parallel goroutines; any shared mutable state between Engine instances
// would make results diverge or trip the race detector.
func TestConcurrentSimulationsAreIsolated(t *testing.T) {
	jobs := midWorkload(t)
	const workers = 8
	summaries := make([]metrics.Summary, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cluster.NewTimeShared(16, 168, cluster.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			rec := metrics.NewRecorder()
			p := NewLibraRisk(c, rec)
			e := sim.NewEngine()
			if err := RunSimulation(e, p, rec, jobs, 100); err != nil {
				t.Error(err)
				return
			}
			summaries[w] = rec.Summarize()
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if summaries[w] != summaries[0] {
			t.Fatalf("worker %d diverged:\n%+v\n%+v", w, summaries[w], summaries[0])
		}
	}
}
