package sched

// Validation of the simulation substrate against closed-form queueing
// theory: an FCFS cluster fed Poisson arrivals with exponential service
// and deadlines that never bind is an M/M/c queue, whose mean response time is
// exact. Agreement here validates the event engine, the space-shared
// cluster, and the FCFS queue discipline end to end.

import (
	"math"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// mmcMeanResponse returns the exact M/M/c mean response time (waiting +
// service) for arrival rate lambda, service rate mu per server, c servers.
func mmcMeanResponse(lambda, mu float64, c int) float64 {
	rho := lambda / (float64(c) * mu)
	if rho >= 1 {
		return math.Inf(1)
	}
	// Erlang C: probability an arrival waits.
	a := lambda / mu
	sum := 0.0
	term := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			term *= a / float64(k)
		}
		sum += term
	}
	top := term * a / float64(c) / (1 - rho)
	pWait := top / (sum + top)
	wq := pWait / (float64(c)*mu - lambda)
	return wq + 1/mu
}

// expJobs builds n single-processor jobs with Poisson arrivals (rate
// lambda) and exponential runtimes (rate mu), with deadlines far enough
// away to never bind.
func expJobs(seed uint64, n int, lambda, mu float64) []workload.Job {
	r := sim.NewRNG(seed)
	arr := r.Stream(1)
	svc := r.Stream(2)
	jobs := make([]workload.Job, n)
	t := 0.0
	for i := range jobs {
		if i > 0 {
			t += arr.Exp(1 / lambda)
		}
		run := svc.Exp(1 / mu)
		if run < 1e-9 {
			run = 1e-9
		}
		jobs[i] = workload.Job{
			ID: i + 1, Submit: t, Runtime: run, TraceEstimate: run,
			NumProc: 1, Deadline: 1e12,
		}
	}
	return jobs
}

// meanResponse runs the jobs through FCFS on c nodes and returns the
// measured mean response time. Their 1e12 s deadlines never bind, so
// FCFS's lazy admission rejects nothing.
func meanResponse(t *testing.T, jobs []workload.Job, c int) float64 {
	t.Helper()
	cl, err := cluster.NewSpaceShared(c, 168, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	p := NewFCFS(cl, rec)
	e := sim.NewEngine()
	if err := core.RunSimulation(e, p, rec, jobs, 0); err != nil {
		t.Fatal(err)
	}
	var w sim.Welford
	for _, res := range rec.Results() {
		if res.Outcome == metrics.Met || res.Outcome == metrics.Missed {
			w.Add(res.Response)
		}
	}
	if w.N() != len(jobs) {
		t.Fatalf("completed %d of %d jobs", w.N(), len(jobs))
	}
	return w.Mean()
}

func TestMM1AgainstTheory(t *testing.T) {
	// λ = 0.7, µ = 1: M/M/1 mean response = 1/(µ−λ) = 3.333…
	const lambda, mu = 0.7, 1.0
	jobs := expJobs(11, 60000, lambda, mu)
	got := meanResponse(t, jobs, 1)
	want := mmcMeanResponse(lambda, mu, 1)
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("M/M/1 mean response = %.3f, theory %.3f (off %.1f%%)", got, want, rel*100)
	}
}

func TestMM1TheoryFormulaSelfCheck(t *testing.T) {
	// For c=1 the Erlang C expression must reduce to 1/(µ−λ).
	for _, lambda := range []float64{0.1, 0.5, 0.9} {
		want := 1 / (1 - lambda)
		if got := mmcMeanResponse(lambda, 1, 1); math.Abs(got-want) > 1e-9 {
			t.Fatalf("mmcMeanResponse(%g,1,1) = %v, want %v", lambda, got, want)
		}
	}
	if !math.IsInf(mmcMeanResponse(2, 1, 1), 1) {
		t.Fatal("overloaded queue should be infinite")
	}
}

func TestMMCAgainstTheory(t *testing.T) {
	// 4 servers at ρ = 0.8: λ = 3.2, µ = 1.
	const lambda, mu, servers = 3.2, 1.0, 4
	jobs := expJobs(13, 80000, lambda, mu)
	got := meanResponse(t, jobs, servers)
	want := mmcMeanResponse(lambda, mu, servers)
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("M/M/4 mean response = %.3f, theory %.3f (off %.1f%%)", got, want, rel*100)
	}
}

func TestMMCLightLoadResponseIsService(t *testing.T) {
	// At near-zero load, response ≈ service time 1/µ.
	jobs := expJobs(17, 20000, 0.01, 1.0)
	got := meanResponse(t, jobs, 4)
	if math.Abs(got-1) > 0.05 {
		t.Fatalf("light-load response = %.3f, want ≈ 1", got)
	}
}

// TestTimeSharedWorkConservationExact validates the time-shared engine's
// central invariant against an exact value: a work-conserving node given
// a batch of jobs at t=0 must finish the last one at exactly the total
// work, regardless of how the deadline-proportional weights slice the
// capacity along the way.
func TestTimeSharedWorkConservationExact(t *testing.T) {
	r := sim.NewRNG(23)
	cl, err := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	// Admit everything: a huge sigma threshold turns LibraRisk into a
	// pure proportional-share executor.
	p := core.NewLibraRisk(cl, rec)
	p.SigmaThreshold = math.Inf(1)
	e := sim.NewEngine()
	var total float64
	n := 200
	for i := 0; i < n; i++ {
		run := 1 + r.Float64()*100
		total += run
		p.Submit(e, workload.Job{
			ID: i + 1, Submit: 0, Runtime: run, TraceEstimate: run,
			NumProc: 1, Deadline: 10 + r.Float64()*1e5,
		}, run)
	}
	e.MaxEvents = 10_000_000
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	var last float64
	completed := 0
	for _, res := range rec.Results() {
		if res.Outcome == metrics.Met || res.Outcome == metrics.Missed {
			completed++
			if res.Finish > last {
				last = res.Finish
			}
		}
	}
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	if rel := math.Abs(last-total) / total; rel > 1e-3 {
		t.Fatalf("last completion %.3f, total work %.3f (off %.3g): node was not work-conserving", last, total, rel)
	}
}
