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

import (
	"context"
	"os"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/experiment"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

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

// BenchmarkTableWorkload regenerates the §4 workload-characteristics
// table (generation + statistics) at paper scale.
func BenchmarkTableWorkload(b *testing.B) {
	base := experiment.DefaultBase()
	for i := 0; i < b.N; i++ {
		jobs, err := experiment.GenerateBase(base)
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := experiment.BuildWorkloadTableFrom(base, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tbl.MeanInterarrivalSec, "interarrival-s")
			b.ReportMetric(tbl.PctOverestimates, "overest-%")
		}
	}
}

func benchFigure(b *testing.B, build func(context.Context, experiment.BaseConfig, []workload.Job) (experiment.Figure, error)) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		jobs, err := experiment.GenerateBase(base)
		if err != nil {
			b.Fatal(err)
		}
		f, err := build(context.Background(), base, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigureShape(b, f)
		}
	}
}

// reportFigureShape attaches the figure's headline comparison — the gap
// between LibraRisk and Libra on fulfilled % under trace estimates at the
// rightmost sweep point — to the benchmark output.
func reportFigureShape(b *testing.B, f experiment.Figure) {
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
			b.ReportMetric(risk-libra, "risk-vs-libra")
			return
		}
	}
}

// BenchmarkFigure1 regenerates figure 1 (varying workload).
func BenchmarkFigure1(b *testing.B) { benchFigure(b, experiment.Figure1FromContext) }

// BenchmarkFigure2 regenerates figure 2 (varying deadline high:low ratio).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, experiment.Figure2FromContext) }

// BenchmarkFigure3 regenerates figure 3 (varying high urgency jobs).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiment.Figure3FromContext) }

// BenchmarkFigure4 regenerates figure 4 (varying estimate inaccuracy).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiment.Figure4FromContext) }

// benchPolicyFullScale runs one paper-scale simulation per iteration.
func benchPolicyFullScale(b *testing.B, pol experiment.PolicyKind, inacc float64) {
	base := experiment.DefaultBase()
	jobs, err := experiment.GenerateBase(base)
	if err != nil {
		b.Fatal(err)
	}
	spec := experiment.RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: inacc, Deadline: base.Deadline}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := experiment.Run(base, jobs, spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(s.PctFulfilled, "fulfilled-%")
			b.ReportMetric(s.AvgSlowdownMet, "slowdown")
		}
	}
}

// BenchmarkPolicyEDFFullScale runs EDF over 3000 jobs on 128 nodes with
// trace estimates.
func BenchmarkPolicyEDFFullScale(b *testing.B) {
	benchPolicyFullScale(b, experiment.EDF, 100)
}

// BenchmarkPolicyLibraFullScale runs Libra at paper scale.
func BenchmarkPolicyLibraFullScale(b *testing.B) {
	benchPolicyFullScale(b, experiment.Libra, 100)
}

// BenchmarkPolicyLibraRiskFullScale runs LibraRisk at paper scale; the
// per-arrival risk evaluation over all 128 nodes dominates its profile.
func BenchmarkPolicyLibraRiskFullScale(b *testing.B) {
	benchPolicyFullScale(b, experiment.LibraRisk, 100)
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationNodeSelection compares best-fit (Libra's strategy),
// first-fit (Algorithm 1's order) and worst-fit placement for Libra under
// trace estimates.
func BenchmarkAblationNodeSelection(b *testing.B) {
	for _, sel := range []NodeSelection{SelectBestFit, SelectFirstFit, SelectWorstFit} {
		sel := sel
		b.Run(string(sel), func(b *testing.B) {
			o := DefaultOptions()
			o.Nodes = 32
			o.Jobs = 600
			o.Policy = PolicyLibra
			o.NodeSelection = sel
			for i := 0; i < b.N; i++ {
				res, err := Simulate(o)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Summary.PctFulfilled, "fulfilled-%")
				}
			}
		})
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
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			o := DefaultOptions()
			o.Nodes = 32
			o.Jobs = 600
			o.RiskSigmaThreshold = tc.sigma
			for i := 0; i < b.N; i++ {
				res, err := Simulate(o)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Summary.PctFulfilled, "fulfilled-%")
					b.ReportMetric(float64(res.Summary.Missed), "missed")
				}
			}
		})
	}
}

// BenchmarkAblationWorkConserving compares work-conserving nodes (spare
// capacity redistributed) against strict eq.-1 shares.
func BenchmarkAblationWorkConserving(b *testing.B) {
	for _, tc := range []struct {
		name string
		wc   bool
	}{{"work-conserving", true}, {"strict-share", false}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			o := DefaultOptions()
			o.Nodes = 32
			o.Jobs = 600
			o.WorkConserving = tc.wc
			for i := 0; i < b.N; i++ {
				res, err := Simulate(o)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Summary.PctFulfilled, "fulfilled-%")
					b.ReportMetric(res.Summary.AvgSlowdownMet, "slowdown")
				}
			}
		})
	}
}

// BenchmarkAblationOverrunFloor sweeps the residual weight granted to jobs
// that overran their estimate, the one free parameter in the node model.
func BenchmarkAblationOverrunFloor(b *testing.B) {
	base := benchBase()
	jobs, err := experiment.GenerateBase(base)
	if err != nil {
		b.Fatal(err)
	}
	for _, floor := range []float64{0.005, 0.02, 0.1} {
		floor := floor
		b.Run(floatName(floor), func(b *testing.B) {
			cfg := base
			cfg.Cluster.OverrunFloorWeight = floor
			spec := experiment.RunSpec{Policy: experiment.LibraRisk, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: cfg.Deadline}
			for i := 0; i < b.N; i++ {
				s, err := experiment.Run(cfg, jobs, spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(s.PctFulfilled, "fulfilled-%")
				}
			}
		})
	}
}

func floatName(f float64) string {
	switch f {
	case 0.005:
		return "floor=0.005"
	case 0.02:
		return "floor=0.02"
	default:
		return "floor=0.1"
	}
}

// BenchmarkAblationRiskRule compares the paper's σ = 0 suitability test
// against the stricter µ = 1 ("no predicted delay at all") rule; the gap
// is the value of LibraRisk's forgiveness of lone overestimated jobs.
func BenchmarkAblationRiskRule(b *testing.B) {
	base := benchBase()
	jobs, err := experiment.GenerateBase(base)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		meanRule bool
	}{{"sigma-rule", false}, {"mu-rule", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := runRiskVariant(base, jobs, tc.meanRule)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(s.PctFulfilled, "fulfilled-%")
					b.ReportMetric(float64(s.Rejected), "rejected")
				}
			}
		})
	}
}

func runRiskVariant(base experiment.BaseConfig, baseJobs []workload.Job, meanRule bool) (metrics.Summary, error) {
	jobs, err := workload.AssignDeadlines(baseJobs, base.Deadline)
	if err != nil {
		return metrics.Summary{}, err
	}
	c, err := cluster.NewTimeShared(base.Nodes, base.Rating, base.Cluster)
	if err != nil {
		return metrics.Summary{}, err
	}
	rec := metrics.NewRecorder()
	p := core.NewLibraRisk(c, rec)
	p.MeanRule = meanRule
	e := sim.NewEngine()
	if err := core.RunSimulation(e, p, rec, jobs, 100); err != nil {
		return metrics.Summary{}, err
	}
	return rec.Summarize(), nil
}

// BenchmarkExtensionPrediction runs the system-generated-estimates
// extension experiment (figure "prediction") at reduced scale.
func BenchmarkExtensionPrediction(b *testing.B) {
	base := benchBase()
	base.Generator.Jobs = 400
	base.Generator.Users = workload.DefaultUserModelConfig()
	for i := 0; i < b.N; i++ {
		f, err := experiment.FigurePrediction(base)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(f.Panels) > 0 {
			// Report the lift the scaling predictor gives Libra at full
			// inaccuracy (rightmost x of panel (a)).
			p := f.Panels[0]
			var raw, scaled float64
			for _, s := range p.Series {
				switch s.Name {
				case "user-estimate":
					raw = s.Y[len(s.Y)-1]
				case "scaling":
					scaled = s.Y[len(s.Y)-1]
				}
			}
			b.ReportMetric(scaled-raw, "prediction-lift")
		}
	}
}

// BenchmarkExtensionPolicies runs the related-work schedulers (FCFS,
// EASY, conservative, QoPS) over the benchmark workload with trace
// estimates for a seven-way comparison row.
func BenchmarkExtensionPolicies(b *testing.B) {
	for _, pol := range []Policy{PolicyFCFS, PolicyBackfillEASY, PolicyBackfillConservative, PolicyQoPS} {
		pol := pol
		b.Run(string(pol), func(b *testing.B) {
			o := DefaultOptions()
			o.Nodes = 32
			o.Jobs = 600
			o.Policy = pol
			o.QoPSSlackFactor = 2
			for i := 0; i < b.N; i++ {
				res, err := Simulate(o)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Summary.PctFulfilled, "fulfilled-%")
				}
			}
		})
	}
}

// BenchmarkPredictorScaling isolates the cost of LibraRisk's per-node
// fluid predictor as concurrent slices grow, on the scratch-buffer fast
// path the admission control actually uses (zero allocations in steady
// state).
func BenchmarkPredictorScaling(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		n := n
		b.Run(sliceCountName(n), func(b *testing.B) {
			c, err := cluster.NewTimeShared(1, 168, cluster.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			e := sim.NewEngine()
			for i := 0; i < n; i++ {
				j := workload.Job{
					ID: i + 1, Runtime: 1000, TraceEstimate: 1000,
					NumProc: 1, Deadline: 100000 + float64(i)*1000,
				}
				if _, err := c.Submit(e, j, 1000, []int{0}); err != nil {
					b.Fatal(err)
				}
			}
			cand := &cluster.Candidate{JobID: 999, RefWork: 500, AbsDeadline: 50000}
			node := c.Node(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := node.PredictDelaysScratch(0, cand); len(out) != n+1 {
					b.Fatal("prediction lost items")
				}
			}
		})
	}
}

// --- Admission fast path ------------------------------------------------
//
// The BenchmarkAdmission* group isolates the per-arrival admission cost —
// the hottest path at paper scale: every submission evaluates every node.
// `make bench-json` runs exactly this group and writes BENCH_admission.json
// so the trajectory is machine-readable across PRs.

// admissionCluster builds a paper-scale time-shared cluster with
// slicesPerNode running slices on every node, placed directly (bypassing
// admission) so the benchmarks control the load exactly. With overrun
// true, half the slices have already exhausted their estimates — the
// poisoned-node state LibraRisk's risk test exists to detect.
func admissionCluster(b *testing.B, nodes, slicesPerNode int, overrun bool) (*sim.Engine, *cluster.TimeShared) {
	b.Helper()
	c, err := cluster.NewTimeShared(nodes, 168, cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
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
				b.Fatal(err)
			}
			id++
		}
	}
	return e, c
}

// benchAdmissionRiskScan measures one full LibraRisk admission evaluation
// — the risk of every node with the candidate tentatively added — which
// is the per-job cost Algorithm 1 pays on every arrival.
func benchAdmissionRiskScan(b *testing.B, slicesPerNode int) {
	_, c := admissionCluster(b, 128, slicesPerNode, true)
	rec := metrics.NewRecorder()
	p := core.NewLibraRisk(c, rec)
	cand := &cluster.Candidate{JobID: 99999, RefWork: 2000, AbsDeadline: 26000}
	now := 1000.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sigmaSum float64
		for n := 0; n < c.Len(); n++ {
			_, sigma := p.NodeRisk(now, c.Node(n), cand)
			sigmaSum += sigma
		}
		if i == 0 {
			b.ReportMetric(sigmaSum/float64(c.Len()), "mean-sigma")
		}
	}
}

// BenchmarkAdmissionRiskScan2 evaluates all 128 nodes at 2 slices each.
func BenchmarkAdmissionRiskScan2(b *testing.B) { benchAdmissionRiskScan(b, 2) }

// BenchmarkAdmissionRiskScan8 evaluates all 128 nodes at 8 slices each.
func BenchmarkAdmissionRiskScan8(b *testing.B) { benchAdmissionRiskScan(b, 8) }

// BenchmarkAdmissionSubmitReject measures the end-to-end LibraRisk Submit
// path on a cluster whose nodes all carry overrun slices, so every
// arrival walks all nodes and is rejected: the worst-case per-job
// admission cost, recorder bookkeeping included.
func BenchmarkAdmissionSubmitReject(b *testing.B) {
	e, c := admissionCluster(b, 128, 4, true)
	rec := metrics.NewRecorder()
	p := core.NewLibraRisk(c, rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := workload.Job{
			ID: 1_000_000 + i, Runtime: 2000, TraceEstimate: 2000,
			NumProc: 2, Submit: 0, Deadline: 9000,
		}
		p.Submit(e, j, 2000)
	}
	b.StopTimer()
	if s := rec.Summarize(); s.Rejected != s.Submitted {
		b.Fatalf("expected all rejected, got %+v", s)
	}
}

// BenchmarkAdmissionRiskScanReject512 is BenchmarkAdmissionSubmitReject at
// the serve_scan benchmark's shape: 512 nodes carrying 7 slices each,
// every node unsuitable, so each Submit evaluates all 512 nodes — the case
// the σ bound's early exit exists for.
func BenchmarkAdmissionRiskScanReject512(b *testing.B) {
	e, c := admissionCluster(b, 512, 7, true)
	rec := metrics.NewRecorder()
	p := core.NewLibraRisk(c, rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := workload.Job{
			ID: 1_000_000 + i, Runtime: 2000, TraceEstimate: 2000,
			NumProc: 2, Submit: 0, Deadline: 9000,
		}
		p.Submit(e, j, 2000)
	}
	b.StopTimer()
	if s := rec.Summarize(); s.Rejected != s.Submitted {
		b.Fatalf("expected all rejected, got %+v", s)
	}
}

// BenchmarkAdmissionObsDisabledSubmit is BenchmarkAdmissionSubmitReject
// with the observability hooks explicitly detached (their default state):
// it pins the zero-overhead contract of the obs layer on the hottest
// path, where a disabled tracer/metrics/audit must cost exactly one nil
// check per would-be emission. The bench gate holds both this benchmark
// and its twin above to the pre-observability baseline, so any accidental
// allocation or time regression from the hooks fails CI.
func BenchmarkAdmissionObsDisabledSubmit(b *testing.B) {
	e, c := admissionCluster(b, 128, 4, true)
	rec := metrics.NewRecorder()
	p := core.NewLibraRisk(c, rec)
	p.SetObs(nil, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := workload.Job{
			ID: 1_000_000 + i, Runtime: 2000, TraceEstimate: 2000,
			NumProc: 2, Submit: 0, Deadline: 9000,
		}
		p.Submit(e, j, 2000)
	}
	b.StopTimer()
	if s := rec.Summarize(); s.Rejected != s.Submitted {
		b.Fatalf("expected all rejected, got %+v", s)
	}
}

// BenchmarkAdmissionLibraShareScan measures Libra's admission test (eq. 2
// with the early-exit share accumulation) over all 128 nodes.
func BenchmarkAdmissionLibraShareScan(b *testing.B) {
	_, c := admissionCluster(b, 128, 8, false)
	now := 1000.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suitable := 0
		for n := 0; n < c.Len(); n++ {
			if _, ok := c.Node(n).LibraShareWithLimit(now, 2000, 26000, 1+1e-9); ok {
				suitable++
			}
		}
		if i == 0 {
			b.ReportMetric(float64(suitable), "suitable-nodes")
		}
	}
}

// BenchmarkAdmissionFirstFitAccept measures the FirstFit acceptance scan
// on a lightly loaded cluster. Actually admitting a job would mutate the
// cluster between iterations, so the benchmark mirrors Submit's read-only
// suitability walk (empty-node shortcut plus early exit at NumProc
// zero-risk nodes) without placing the job.
func BenchmarkAdmissionFirstFitAccept(b *testing.B) {
	// 4 busy nodes, 124 empty: FirstFit needs the first NumProc zero-risk
	// nodes; with the empty-node shortcut the scan cost collapses.
	c, err := cluster.NewTimeShared(128, 168, cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine()
	for n := 0; n < 4; n++ {
		j := workload.Job{
			ID: n + 1, Runtime: 4000, TraceEstimate: 100,
			NumProc: 1, Submit: 0, Deadline: 5000,
		}
		if _, err := c.Submit(e, j, 100, []int{n}); err != nil {
			b.Fatal(err)
		}
	}
	rec := metrics.NewRecorder()
	p := core.NewLibraRisk(c, rec)
	cand := &cluster.Candidate{JobID: 99999, RefWork: 2000, AbsDeadline: 26000}
	now := 500.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mirror Submit's scan for a NumProc=4 job under FirstFit.
		found := 0
		for n := 0; n < c.Len() && found < 4; n++ {
			node := c.Node(n)
			if node.NumSlices() == 0 {
				found++
				continue
			}
			if _, sigma := p.NodeRisk(now, node, cand); sigma <= 1e-9 {
				found++
			}
		}
	}
}

func sliceCountName(n int) string {
	switch n {
	case 1:
		return "slices=1"
	case 4:
		return "slices=4"
	case 16:
		return "slices=16"
	default:
		return "slices=64"
	}
}

// --- Sharded engine ------------------------------------------------------

// shardedBase scales the paper configuration up to a larger cluster,
// keeping per-node load constant by shrinking the mean interarrival in
// proportion to the node count.
func shardedBase(nodes, jobs int) experiment.BaseConfig {
	base := experiment.DefaultBase()
	base.Nodes = nodes
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = jobs
	gen.MaxProcs = 64
	gen.MeanInterarrival = workload.TraceMeanInterarrival * float64(workload.SDSCSP2Nodes) / float64(nodes)
	base.Generator = gen
	return base
}

// benchShardedRun is the sharded-engine benchmark body: one LibraRisk run
// per iteration over the given cluster/workload scale, sequential when
// shards <= 1. The sequential and sharded variants run the exact same
// simulation (the differential tests prove byte-identity), so their ratio
// is the sharding speedup on this machine — on a single-core host the
// sharded run instead measures pure barrier/coordination overhead.
func benchShardedRun(b *testing.B, nodes, jobs, shards int) {
	base := shardedBase(nodes, jobs)
	base.Shards = shards
	wl, err := experiment.GenerateBase(base)
	if err != nil {
		b.Fatal(err)
	}
	spec := experiment.RunSpec{Policy: experiment.LibraRisk, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := experiment.Run(base, wl, spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(s.PctFulfilled, "fulfilled-%")
		}
	}
}

// BenchmarkShardedLibraRiskSeq is the sequential baseline for the sharded
// engine at moderate datacenter scale (512 nodes, 10k jobs).
func BenchmarkShardedLibraRiskSeq(b *testing.B) { benchShardedRun(b, 512, 10_000, 0) }

// BenchmarkShardedLibraRiskShards8 runs the identical simulation on eight
// engine shards.
func BenchmarkShardedLibraRiskShards8(b *testing.B) { benchShardedRun(b, 512, 10_000, 8) }

// BenchmarkShardedDatacenter* is the full 10,000-node / 1M-job scale the
// sharding work targets. A single run takes many minutes, so it only runs
// when explicitly requested:
//
//	BENCH_DATACENTER=1 go test -run xxx -bench ShardedDatacenter -benchtime 1x .
func benchShardedDatacenter(b *testing.B, shards int) {
	if os.Getenv("BENCH_DATACENTER") == "" {
		b.Skip("set BENCH_DATACENTER=1 to run the 10k-node/1M-job benchmark")
	}
	benchShardedRun(b, 10_000, 1_000_000, shards)
}

func BenchmarkShardedDatacenterSeq(b *testing.B)     { benchShardedDatacenter(b, 0) }
func BenchmarkShardedDatacenterShards8(b *testing.B) { benchShardedDatacenter(b, 8) }
