package core

import (
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

func TestMonitorSamplesIdleCluster(t *testing.T) {
	c, err := cluster.NewTimeShared(2, 168, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	m.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Idle cluster: the monitor takes one sample and stops (nothing else
	// pending), rather than ticking forever.
	if got := len(m.Samples()); got != 1 {
		t.Fatalf("samples = %d, want 1", got)
	}
	s := m.Samples()[0]
	if s.Utilization != 0 || s.RunningJobs != 0 || s.ZeroRiskNodes != 2 {
		t.Fatalf("idle sample = %+v", s)
	}
}

func TestMonitorTracksLoadAndRisk(t *testing.T) {
	c, err := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	p := NewLibraRisk(c, rec)
	m, err := NewMonitor(c, 25)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	m.Start(e)
	// An underestimated job that overruns past its deadline: believed 10,
	// real 300, deadline 100. From t≈100 to 300 the node carries a
	// delayed job → σ > 0 in samples from that window.
	p.Submit(e, tsJob(1, 0, 300, 100, 1), 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	samples := m.Samples()
	if len(samples) < 5 {
		t.Fatalf("samples = %d", len(samples))
	}
	var sawBusy, sawRisk bool
	for _, s := range samples {
		if s.RunningJobs == 1 && s.Utilization > 0.9 {
			sawBusy = true
		}
		// A lone delayed job has σ = 0 (no spread) but µ > 1 and a
		// positive delayed-job count.
		if s.MeanMu > 1 && s.DelayedJobs > 0 {
			sawRisk = true
		}
	}
	if !sawBusy {
		t.Error("monitor never observed the busy node")
	}
	if !sawRisk {
		t.Error("monitor never observed the poisoned node's delay (µ > 1)")
	}
}

func TestMonitorValidatesInterval(t *testing.T) {
	c, _ := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
	if _, err := NewMonitor(c, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestMonitorLimit(t *testing.T) {
	c, err := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	p := NewLibra(c, rec)
	m, err := NewMonitor(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Limit = 3
	e := sim.NewEngine()
	m.Start(e)
	p.Submit(e, tsJob(1, 0, 1000, 5000, 1), 1000)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Samples()); got != 3 {
		t.Fatalf("samples = %d, want limit 3", got)
	}
}

func TestLibraRiskMeanRuleStricterThanSigma(t *testing.T) {
	// The lone-overestimated-job case: σ = 0 admits it, µ > 1 rejects it.
	run := func(meanRule bool) metrics.Summary {
		c, err := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec := metrics.NewRecorder()
		p := NewLibraRisk(c, rec)
		p.MeanRule = meanRule
		e := sim.NewEngine()
		// estimate 300 > deadline 200, real runtime 100.
		p.Submit(e, tsJob(1, 0, 100, 200, 1), 300)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		rec.Flush()
		return rec.Summarize()
	}
	sigma := run(false)
	mu := run(true)
	if sigma.Met != 1 || sigma.Rejected != 0 {
		t.Fatalf("sigma rule: %+v, want forgiving acceptance", sigma)
	}
	if mu.Rejected != 1 {
		t.Fatalf("mean rule: %+v, want strict rejection", mu)
	}
}

func TestLibraRiskMeanRuleOnWorkload(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Jobs = 300
	cfg.MaxProcs = 8
	cfg.MeanInterarrival = 500
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
	run := func(meanRule bool) metrics.Summary {
		c, err := cluster.NewTimeShared(8, 168, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec := metrics.NewRecorder()
		p := NewLibraRisk(c, rec)
		p.MeanRule = meanRule
		e := sim.NewEngine()
		if err := RunSimulation(e, p, rec, jobs, 100); err != nil {
			t.Fatal(err)
		}
		return rec.Summarize()
	}
	sigma := run(false)
	mu := run(true)
	// The µ rule is strictly more conservative: it can only reject more.
	if mu.Rejected < sigma.Rejected {
		t.Fatalf("µ rule rejected %d < σ rule %d", mu.Rejected, sigma.Rejected)
	}
}
