package core

import (
	"math"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// TestMonitorCacheMatchesRecompute runs the same trace-estimate workload
// twice — once with the version-keyed baseline cache and once with every
// tick fully recomputed — and requires the two sample series to agree.
// Integer observables must match exactly; float observables are compared
// within 1e-9 because a cached stable prediction carries finish times
// computed as now+believed(now) at an earlier tick, which can differ from
// a fresh recomputation by float rounding dust (the values are
// mathematically identical).
func TestMonitorCacheMatchesRecompute(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Jobs = 400
	cfg.MaxProcs = 8
	cfg.MeanInterarrival = 400
	cfg.MeanRuntime = 1500
	cfg.MaxRuntime = 10000
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = workload.AssignDeadlines(jobs, workload.DefaultDeadlineConfig())
	if err != nil {
		t.Fatal(err)
	}

	run := func(disableCache bool) []MonitorSample {
		c, err := cluster.NewTimeShared(8, 168, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec := metrics.NewRecorder()
		p := NewLibraRisk(c, rec)
		m, err := NewMonitor(c, 50)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		if disableCache {
			// The checker's hook runs after every event, so each tick
			// starts from an empty cache and recomputes every node.
			flush := sim.NewInvariantChecker()
			flush.Register("clear monitor cache", func() error {
				m.cache = nil
				return nil
			})
			e.SetInvariantChecker(flush)
		}
		m.Start(e)
		// Trace estimates (100% inaccuracy) so overruns and deadline
		// misses poison nodes and the risk series is non-trivial.
		if err := RunSimulation(e, p, rec, jobs, 100); err != nil {
			t.Fatal(err)
		}
		return m.Samples()
	}

	cached := run(false)
	fresh := run(true)

	if len(cached) != len(fresh) {
		t.Fatalf("samples = %d cached vs %d recomputed", len(cached), len(fresh))
	}
	if len(cached) < 20 {
		t.Fatalf("only %d samples — workload too short to exercise the cache", len(cached))
	}
	var sawRisk bool
	for i := range cached {
		a, b := cached[i], fresh[i]
		if a.Time != b.Time || a.RunningJobs != b.RunningJobs || a.BusyNodes != b.BusyNodes ||
			a.DelayedJobs != b.DelayedJobs || a.ZeroRiskNodes != b.ZeroRiskNodes {
			t.Fatalf("sample %d integer fields diverge:\ncached  %+v\nfresh   %+v", i, a, b)
		}
		for _, f := range [][2]float64{
			{a.Utilization, b.Utilization},
			{a.MeanSigma, b.MeanSigma},
			{a.MeanMu, b.MeanMu},
		} {
			if math.Abs(f[0]-f[1]) > 1e-9 {
				t.Fatalf("sample %d float fields diverge:\ncached  %+v\nfresh   %+v", i, a, b)
			}
		}
		if a.MeanSigma > 0 {
			sawRisk = true
		}
	}
	if !sawRisk {
		t.Fatal("risk series stayed flat — scenario never exercised non-trivial predictions")
	}
}
