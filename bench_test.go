package clustersched

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus ablations over the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Figure benchmarks run at a reduced scale (32 nodes / 600 jobs) so the
// whole suite completes in seconds; Benchmark*FullScale variants run the
// paper-scale configuration (128 nodes / 3000 jobs) for the three
// policies. Reproduction metrics (fulfilled %, slowdown) are attached to
// the benchmark output via b.ReportMetric, so `go test -bench` doubles as
// a compact results table.
//
// Every benchmark times an op built by a constructor of the form
// func(testing.TB) func(): the constructor does the setup, and one call
// of the op is one iteration. TestAllocationBudgets builds the admission,
// predictor, policy-run and serving ops with the same constructors.

import (
	"context"
	"fmt"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/experiment"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// benchOp times the op that mk builds.
func benchOp(b *testing.B, mk func(testing.TB) func()) {
	op := mk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// reportMetric attaches v to a benchmark's output. The budget test builds
// the same ops under a *testing.T, where it does nothing.
func reportMetric(tb testing.TB, v float64, unit string) {
	if b, ok := tb.(*testing.B); ok {
		b.ReportMetric(v, unit)
	}
}

// benchBase is the reduced-scale configuration used by figure benchmarks.
func benchBase() experiment.BaseConfig {
	base := experiment.DefaultBase()
	base.Nodes = 32
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = 600
	gen.MaxProcs = 32
	gen.MeanInterarrival = 2131
	gen.MeanRuntime = workload.TraceMeanRuntime
	base.Generator = gen
	return base
}

// benchOptions is the facade's DefaultOptions at benchBase's scale.
func benchOptions() Options {
	o := DefaultOptions()
	o.Nodes = 32
	o.Jobs = 600
	return o
}

// BenchmarkTableWorkload regenerates the §4 workload-characteristics
// table (generation + statistics) at paper scale.
func BenchmarkTableWorkload(b *testing.B) { benchOp(b, workloadTableOp) }

func workloadTableOp(tb testing.TB) func() {
	base := experiment.DefaultBase()
	return func() {
		jobs, err := experiment.GenerateBase(base)
		if err != nil {
			tb.Fatal(err)
		}
		tbl, err := experiment.BuildWorkloadTableFrom(base, jobs)
		if err != nil {
			tb.Fatal(err)
		}
		reportMetric(tb, tbl.MeanInterarrivalSec, "interarrival-s")
		reportMetric(tb, tbl.PctOverestimates, "overest-%")
	}
}

// figureOp regenerates one figure at benchBase's scale per call.
func figureOp(build func(context.Context, experiment.BaseConfig, []workload.Job) (experiment.Figure, error)) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		base := benchBase()
		return func() {
			jobs, err := experiment.GenerateBase(base)
			if err != nil {
				tb.Fatal(err)
			}
			f, err := build(context.Background(), base, jobs)
			if err != nil {
				tb.Fatal(err)
			}
			reportFigureShape(tb, f)
		}
	}
}

// reportFigureShape attaches the figure's headline comparison — the gap
// between LibraRisk and Libra on fulfilled % under trace estimates at the
// rightmost sweep point — to the benchmark output.
func reportFigureShape(tb testing.TB, f experiment.Figure) {
	for _, p := range f.Panels {
		if len(p.Series) < 3 || len(p.X) == 0 {
			continue
		}
		var libra, risk float64
		found := 0
		for _, s := range p.Series {
			switch s.Name {
			case "Libra":
				libra = s.Y[len(s.Y)-1]
				found++
			case "LibraRisk":
				risk = s.Y[len(s.Y)-1]
				found++
			}
		}
		if found == 2 {
			reportMetric(tb, risk-libra, "risk-vs-libra")
			return
		}
	}
}

// BenchmarkFigure1 regenerates figure 1 (varying workload).
func BenchmarkFigure1(b *testing.B) { benchOp(b, figureOp(experiment.Figure1FromContext)) }

// BenchmarkFigure2 regenerates figure 2 (varying deadline high:low ratio).
func BenchmarkFigure2(b *testing.B) { benchOp(b, figureOp(experiment.Figure2FromContext)) }

// BenchmarkFigure3 regenerates figure 3 (varying high urgency jobs).
func BenchmarkFigure3(b *testing.B) { benchOp(b, figureOp(experiment.Figure3FromContext)) }

// BenchmarkFigure4 regenerates figure 4 (varying estimate inaccuracy).
func BenchmarkFigure4(b *testing.B) { benchOp(b, figureOp(experiment.Figure4FromContext)) }

// runOp is one simulation of pol over base's workload, with trace
// estimates, per call.
func runOp(base experiment.BaseConfig, pol experiment.PolicyKind) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		jobs, err := experiment.GenerateBase(base)
		if err != nil {
			tb.Fatal(err)
		}
		spec := experiment.RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline}
		return func() {
			s, err := experiment.Run(base, jobs, spec)
			if err != nil {
				tb.Fatal(err)
			}
			reportMetric(tb, s.PctFulfilled, "fulfilled-%")
			reportMetric(tb, s.AvgSlowdownMet, "slowdown")
		}
	}
}

// BenchmarkPolicyEDFFullScale runs EDF over 3000 jobs on 128 nodes with
// trace estimates.
func BenchmarkPolicyEDFFullScale(b *testing.B) {
	benchOp(b, runOp(experiment.DefaultBase(), experiment.EDF))
}

// BenchmarkPolicyLibraFullScale runs Libra at paper scale.
func BenchmarkPolicyLibraFullScale(b *testing.B) {
	benchOp(b, runOp(experiment.DefaultBase(), experiment.Libra))
}

// BenchmarkPolicyLibraRiskFullScale runs LibraRisk at paper scale; the
// per-arrival risk evaluation over all 128 nodes dominates its profile.
func BenchmarkPolicyLibraRiskFullScale(b *testing.B) {
	benchOp(b, runOp(experiment.DefaultBase(), experiment.LibraRisk))
}

// --- Ablations -----------------------------------------------------------

// simulateOp is one facade simulation of o per call.
func simulateOp(o Options) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		return func() {
			res, err := Simulate(o)
			if err != nil {
				tb.Fatal(err)
			}
			reportMetric(tb, res.Summary.PctFulfilled, "fulfilled-%")
			reportMetric(tb, res.Summary.AvgSlowdownMet, "slowdown")
			reportMetric(tb, float64(res.Summary.Missed), "missed")
		}
	}
}

// BenchmarkAblationNodeSelection compares best-fit (Libra's strategy),
// first-fit (Algorithm 1's order) and worst-fit placement for Libra under
// trace estimates.
func BenchmarkAblationNodeSelection(b *testing.B) {
	for _, sel := range []NodeSelection{SelectBestFit, SelectFirstFit, SelectWorstFit} {
		o := benchOptions()
		o.Policy = PolicyLibra
		o.NodeSelection = sel
		b.Run(string(sel), func(b *testing.B) { benchOp(b, simulateOp(o)) })
	}
}

// BenchmarkAblationRiskThreshold compares the paper's strict σ = 0 rule
// against relaxed thresholds.
func BenchmarkAblationRiskThreshold(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sigma float64
	}{
		{"sigma=0", 0},
		{"sigma=0.5", 0.5},
		{"sigma=inf", 1e12},
	} {
		o := benchOptions()
		o.RiskSigmaThreshold = tc.sigma
		b.Run(tc.name, func(b *testing.B) { benchOp(b, simulateOp(o)) })
	}
}

// BenchmarkAblationWorkConserving compares work-conserving nodes (spare
// capacity redistributed) against strict eq.-1 shares.
func BenchmarkAblationWorkConserving(b *testing.B) {
	for _, tc := range []struct {
		name string
		wc   bool
	}{{"work-conserving", true}, {"strict-share", false}} {
		o := benchOptions()
		o.WorkConserving = tc.wc
		b.Run(tc.name, func(b *testing.B) { benchOp(b, simulateOp(o)) })
	}
}

// BenchmarkAblationOverrunFloor sweeps the residual weight granted to jobs
// that overran their estimate, the one free parameter in the node model.
func BenchmarkAblationOverrunFloor(b *testing.B) {
	for _, floor := range []float64{0.005, 0.02, 0.1} {
		base := benchBase()
		base.Cluster.OverrunFloorWeight = floor
		b.Run(fmt.Sprintf("floor=%g", floor), func(b *testing.B) { benchOp(b, runOp(base, experiment.LibraRisk)) })
	}
}

// BenchmarkAblationRiskRule compares the paper's σ = 0 suitability test
// against the stricter µ = 1 ("no predicted delay at all") rule; the gap
// is the value of LibraRisk's forgiveness of lone overestimated jobs.
func BenchmarkAblationRiskRule(b *testing.B) {
	for _, tc := range []struct {
		name     string
		meanRule bool
	}{{"sigma-rule", false}, {"mu-rule", true}} {
		b.Run(tc.name, func(b *testing.B) { benchOp(b, riskRuleOp(tc.meanRule)) })
	}
}

// riskRuleOp is one LibraRisk simulation at benchBase's scale per call,
// under the µ = 1 rule when meanRule is set.
func riskRuleOp(meanRule bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		base := benchBase()
		baseJobs, err := experiment.GenerateBase(base)
		if err != nil {
			tb.Fatal(err)
		}
		return func() {
			jobs, err := workload.AssignDeadlines(baseJobs, base.Deadline)
			if err != nil {
				tb.Fatal(err)
			}
			c, err := cluster.NewTimeShared(base.Nodes, base.Rating, base.Cluster)
			if err != nil {
				tb.Fatal(err)
			}
			rec := metrics.NewRecorder()
			p := core.NewLibraRisk(c, rec)
			p.MeanRule = meanRule
			if err := core.RunSimulation(sim.NewEngine(), p, rec, jobs, 100); err != nil {
				tb.Fatal(err)
			}
			s := rec.Summarize()
			reportMetric(tb, s.PctFulfilled, "fulfilled-%")
			reportMetric(tb, float64(s.Rejected), "rejected")
		}
	}
}

// BenchmarkExtensionPrediction runs the system-generated-estimates
// extension experiment (figure "prediction") at reduced scale.
func BenchmarkExtensionPrediction(b *testing.B) { benchOp(b, predictionOp) }

func predictionOp(tb testing.TB) func() {
	base := benchBase()
	base.Generator.Jobs = 400
	base.Generator.Users = workload.DefaultUserModelConfig()
	return func() {
		f, err := experiment.FigurePrediction(context.Background(), base)
		if err != nil {
			tb.Fatal(err)
		}
		if len(f.Panels) == 0 {
			return
		}
		// Report the lift the scaling predictor gives Libra at full
		// inaccuracy (rightmost x of panel (a)).
		var raw, scaled float64
		for _, s := range f.Panels[0].Series {
			switch s.Name {
			case "user-estimate":
				raw = s.Y[len(s.Y)-1]
			case "scaling":
				scaled = s.Y[len(s.Y)-1]
			}
		}
		reportMetric(tb, scaled-raw, "prediction-lift")
	}
}

// BenchmarkExtensionPolicies runs the related-work schedulers (FCFS,
// EASY, conservative, QoPS) over the benchmark workload with trace
// estimates for a seven-way comparison row.
func BenchmarkExtensionPolicies(b *testing.B) {
	for _, pol := range []Policy{PolicyFCFS, PolicyBackfillEASY, PolicyBackfillConservative, PolicyQoPS} {
		b.Run(string(pol), func(b *testing.B) { benchOp(b, extensionOp(pol)) })
	}
}

// extensionOp simulates one related-work scheduler over the benchmark
// workload.
func extensionOp(pol Policy) func(testing.TB) func() {
	o := benchOptions()
	o.Policy = pol
	o.QoPSSlackFactor = 2
	return simulateOp(o)
}

// BenchmarkPredictorScaling isolates the cost of LibraRisk's per-node
// fluid predictor as concurrent slices grow, on the scratch-buffer fast
// path the admission control actually uses (zero allocations in steady
// state). The sigma0 rows time LibraRisk's whole test of one node in the
// σ = 0 shape (see underloadedOp), where the fluid run would take one
// step per slice, each O(slices), and the early accept takes none.
func BenchmarkPredictorScaling(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("slices=%d", n), func(b *testing.B) { benchOp(b, predictorOp(n)) })
	}
	for _, n := range underloadedSizes {
		b.Run(fmt.Sprintf("sigma0/slices=%d", n), func(b *testing.B) { benchOp(b, underloadedOp(n)) })
	}
}

// underloadedSizes are the slice counts of the σ = 0 rows.
var underloadedSizes = []int{256, 1024, 4096}

// underloadedNode builds a LibraRisk policy on two nodes, node 1 down and
// node 0 holding n slices placed directly at time 0, with works of 1-97 s
// and distinct deadlines from 1e7 s, 1000 s apart. Every slice retires
// before its deadline, so σ = 0, and a fluid run takes O(n) per step and
// more steps as n grows (7, 10 and 16 at 256, 1024 and 4096 slices); the
// slices' Libra weights b/r sum to under 0.02, far below the node's speed.
func underloadedNode(tb testing.TB, n int) (*sim.Engine, *cluster.TimeShared, *core.LibraRisk) {
	tb.Helper()
	c, err := cluster.NewTimeShared(2, 168, cluster.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	c.SetNodeDown(e, 1, true)
	for i := 1; i <= n; i++ {
		work := float64(1 + i*37%97)
		j := workload.Job{ID: i, Runtime: work, TraceEstimate: work, NumProc: 1, Deadline: 1e7 + 1000*float64(i)}
		if _, err := c.Submit(e, j, work, []int{0}); err != nil {
			tb.Fatal(err)
		}
	}
	return e, c, core.NewLibraRisk(c, metrics.NewRecorder())
}

// underloadedOp is one LibraRisk Submit that tests node 0 of
// underloadedNode(n) and finds it suitable, then rejects the job because
// it asks for both nodes, so every call sees the same node.
func underloadedOp(n int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		e, _, p := underloadedNode(tb, n)
		id := 1_000_000
		return func() {
			j := workload.Job{ID: id, Runtime: 50, TraceEstimate: 50, NumProc: 2, Deadline: 1e7}
			id++
			if ok, reason := p.Submit(e, j, 50); ok || reason != "only 1 of 2 required nodes have zero risk" {
				tb.Fatalf("job %d: accepted %v, %q; want node 0 suitable and the job rejected", j.ID, ok, reason)
			}
		}
	}
}

// TestUnderloadedNodeTakesNoFluidStep pins the early accept on the σ = 0
// shape: a LibraRisk Submit on a node of underloadedNode decides with no
// fluid step at every size, where a fluid run would take one step per
// slice. PredictSteps counts steps, not time, so the test cannot flake.
func TestUnderloadedNodeTakesNoFluidStep(t *testing.T) {
	for _, n := range underloadedSizes {
		e, c, p := underloadedNode(t, n)
		j := workload.Job{ID: n + 1, Runtime: 50, TraceEstimate: 50, NumProc: 1, Deadline: 1e7}
		if ok, reason := p.Submit(e, j, 50); !ok {
			t.Fatalf("%d slices: rejected (%s)", n, reason)
		}
		if steps := c.Node(0).PredictSteps(); steps != 0 {
			t.Errorf("%d slices: the Submit took %d fluid steps, want 0", n, steps)
		}
	}
}

// predictorOp is one full fluid prediction on a node running n slices.
func predictorOp(n int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		c, err := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		e := sim.NewEngine()
		for i := 0; i < n; i++ {
			j := workload.Job{
				ID: i + 1, Runtime: 1000, TraceEstimate: 1000,
				NumProc: 1, Deadline: 100000 + float64(i)*1000,
			}
			if _, err := c.Submit(e, j, 1000, []int{0}); err != nil {
				tb.Fatal(err)
			}
		}
		cand := &cluster.Candidate{JobID: 999, RefWork: 500, AbsDeadline: 50000}
		node := c.Node(0)
		return func() {
			if out := node.PredictDelaysScratch(0, cand); len(out) != n+1 {
				tb.Fatal("prediction lost items")
			}
		}
	}
}

// --- Admission fast path ------------------------------------------------
//
// The BenchmarkAdmission* group isolates the per-arrival admission cost —
// the hottest path at paper scale: every submission evaluates every node.
// TestAllocationBudgets holds each of them to its allocation count;
// `sh bench/run.sh` measures the same path end to end (serve_scan).

// admissionCluster builds a paper-scale time-shared cluster with
// slicesPerNode running slices on every node, placed directly (bypassing
// admission) so the benchmarks control the load exactly. With overrun
// true, half the slices have already exhausted their estimates — the
// poisoned-node state LibraRisk's risk test exists to detect.
func admissionCluster(tb testing.TB, nodes, slicesPerNode int, overrun bool) (*sim.Engine, *cluster.TimeShared) {
	tb.Helper()
	c, err := cluster.NewTimeShared(nodes, 168, cluster.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	id := 1
	for s := 0; s < slicesPerNode; s++ {
		for n := 0; n < nodes; n++ {
			estimate := 4000.0
			if overrun && s%2 == 0 {
				// Underestimated: believed work will exhaust long before
				// the real work does, leaving an overrun slice behind.
				estimate = 100.0
			}
			// Deadlines tight enough that loaded nodes predict real
			// delays, so the scans exercise the full fluid machinery
			// (MaxWeight regime, deadline crossings) rather than the
			// all-on-time case.
			j := workload.Job{
				ID: id, Runtime: 4000, TraceEstimate: estimate,
				NumProc: 1, Submit: 0,
				Deadline: 5000 + float64(id%7)*1500,
			}
			if _, err := c.Submit(e, j, estimate, []int{n}); err != nil {
				tb.Fatal(err)
			}
			id++
		}
	}
	return e, c
}

// riskScanOp is one full LibraRisk admission evaluation — the risk of
// every node with the candidate tentatively added — which is the per-job
// cost Algorithm 1 pays on every arrival.
func riskScanOp(slicesPerNode int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		_, c := admissionCluster(tb, 128, slicesPerNode, true)
		p := core.NewLibraRisk(c, metrics.NewRecorder())
		cand := &cluster.Candidate{JobID: 99999, RefWork: 2000, AbsDeadline: 26000}
		return func() {
			var sigmaSum float64
			for n := 0; n < c.Len(); n++ {
				_, sigma := p.NodeRisk(1000, c.Node(n), cand)
				sigmaSum += sigma
			}
			reportMetric(tb, sigmaSum/float64(c.Len()), "mean-sigma")
		}
	}
}

// BenchmarkAdmissionRiskScan2 evaluates all 128 nodes at 2 slices each.
func BenchmarkAdmissionRiskScan2(b *testing.B) { benchOp(b, riskScanOp(2)) }

// BenchmarkAdmissionRiskScan8 evaluates all 128 nodes at 8 slices each.
func BenchmarkAdmissionRiskScan8(b *testing.B) { benchOp(b, riskScanOp(8)) }

// submitRejectOp is one end-to-end LibraRisk Submit, recorder bookkeeping
// included, on a cluster whose nodes all carry overrun slices, so every
// arrival walks all nodes and is rejected: the worst-case per-job
// admission cost. detachObs detaches the observability hooks explicitly.
func submitRejectOp(nodes, slicesPerNode int, detachObs bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		e, c := admissionCluster(tb, nodes, slicesPerNode, true)
		p := core.NewLibraRisk(c, metrics.NewRecorder())
		if detachObs {
			p.SetObs(nil, nil, nil)
		}
		id := 1_000_000
		submit := func() bool {
			j := workload.Job{
				ID: id, Runtime: 2000, TraceEstimate: 2000,
				NumProc: 2, Submit: 0, Deadline: 9000,
			}
			id++
			ok, _ := p.Submit(e, j, 2000)
			return ok
		}
		// The first few arrivals still fit (nine on 128 nodes × 4 slices):
		// admit them here, so that every timed arrival is rejected.
		for submit() {
		}
		return func() {
			if submit() {
				tb.Fatalf("job %d admitted; every node should be unsuitable", id-1)
			}
		}
	}
}

// BenchmarkAdmissionSubmitReject rejects on 128 nodes carrying 4 slices.
func BenchmarkAdmissionSubmitReject(b *testing.B) { benchOp(b, submitRejectOp(128, 4, false)) }

// BenchmarkAdmissionRiskScanReject512 is BenchmarkAdmissionSubmitReject at
// the serve_scan benchmark's shape: 512 nodes carrying 7 slices each,
// every node unsuitable, so each Submit evaluates all 512 nodes — the case
// the σ bound's early exit exists for.
func BenchmarkAdmissionRiskScanReject512(b *testing.B) { benchOp(b, submitRejectOp(512, 7, false)) }

// BenchmarkAdmissionObsDisabledSubmit is BenchmarkAdmissionSubmitReject
// with the observability hooks explicitly detached (their default state):
// it pins the zero-overhead contract of the obs layer on the hottest
// path, where a disabled tracer/metrics/audit must cost exactly one nil
// check per would-be emission. TestAllocationBudgets holds it to the same
// exact allocation count as its twin above.
func BenchmarkAdmissionObsDisabledSubmit(b *testing.B) { benchOp(b, submitRejectOp(128, 4, true)) }

// libraShareScanOp is Libra's admission test (eq. 2 with the early-exit
// share accumulation) over all 128 nodes.
func libraShareScanOp(tb testing.TB) func() {
	_, c := admissionCluster(tb, 128, 8, false)
	return func() {
		suitable := 0
		for n := 0; n < c.Len(); n++ {
			if _, ok := c.Node(n).LibraShareWithLimit(1000, 2000, 26000, 1+1e-9); ok {
				suitable++
			}
		}
		reportMetric(tb, float64(suitable), "suitable-nodes")
	}
}

// BenchmarkAdmissionLibraShareScan measures Libra's share scan.
func BenchmarkAdmissionLibraShareScan(b *testing.B) { benchOp(b, libraShareScanOp) }

// firstFitAcceptOp is the FirstFit acceptance scan for a NumProc=4 job on
// a lightly loaded cluster. Actually admitting a job would mutate the
// cluster between calls, so the op mirrors Submit's read-only suitability
// walk (empty-node shortcut plus early exit at NumProc zero-risk nodes)
// without placing the job.
func firstFitAcceptOp(tb testing.TB) func() {
	// 4 busy nodes, 124 empty: FirstFit needs the first NumProc zero-risk
	// nodes; with the empty-node shortcut the scan cost collapses.
	c, err := cluster.NewTimeShared(128, 168, cluster.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	for n := 0; n < 4; n++ {
		j := workload.Job{
			ID: n + 1, Runtime: 4000, TraceEstimate: 100,
			NumProc: 1, Submit: 0, Deadline: 5000,
		}
		if _, err := c.Submit(e, j, 100, []int{n}); err != nil {
			tb.Fatal(err)
		}
	}
	p := core.NewLibraRisk(c, metrics.NewRecorder())
	cand := &cluster.Candidate{JobID: 99999, RefWork: 2000, AbsDeadline: 26000}
	return func() {
		found := 0
		for n := 0; n < c.Len() && found < 4; n++ {
			node := c.Node(n)
			if node.NumSlices() == 0 {
				found++
				continue
			}
			if _, sigma := p.NodeRisk(500, node, cand); sigma <= 1e-9 {
				found++
			}
		}
	}
}

// BenchmarkAdmissionFirstFitAccept measures the FirstFit acceptance scan.
func BenchmarkAdmissionFirstFitAccept(b *testing.B) { benchOp(b, firstFitAcceptOp) }

// --- Datacenter scale ----------------------------------------------------

// scaledBase scales the paper configuration up to a larger cluster,
// keeping per-node load constant by shrinking the mean interarrival in
// proportion to the node count.
func scaledBase(nodes, jobs int) experiment.BaseConfig {
	base := experiment.DefaultBase()
	base.Nodes = nodes
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = jobs
	gen.MaxProcs = 64
	gen.MeanInterarrival = workload.TraceMeanInterarrival * float64(workload.SDSCSP2Nodes) / float64(nodes)
	base.Generator = gen
	return base
}

// BenchmarkLibraRisk512x10k runs LibraRisk at moderate datacenter
// scale (512 nodes, 10k jobs).
func BenchmarkLibraRisk512x10k(b *testing.B) {
	benchOp(b, runOp(scaledBase(512, 10_000), experiment.LibraRisk))
}
