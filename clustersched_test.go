package clustersched

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"clustersched/internal/sim"
)

// fastOptions returns a scaled-down configuration for quick API tests.
func fastOptions() Options {
	o := DefaultOptions()
	o.Nodes = 16
	o.Jobs = 200
	return o
}

func TestSimulateDefaultsShapedResult(t *testing.T) {
	o := fastOptions()
	res, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != PolicyLibraRisk {
		t.Fatalf("Policy = %q", res.Policy)
	}
	s := res.Summary
	if s.Submitted != o.Jobs {
		t.Fatalf("Submitted = %d, want %d", s.Submitted, o.Jobs)
	}
	if s.Met+s.Missed+s.Rejected+s.Unfinished != s.Submitted {
		t.Fatalf("outcome counts do not add up: %+v", s)
	}
	if len(res.Jobs) != o.Jobs {
		t.Fatalf("Jobs = %d", len(res.Jobs))
	}
	if s.PctFulfilled <= 0 || s.PctFulfilled > 100 {
		t.Fatalf("PctFulfilled = %v", s.PctFulfilled)
	}
}

func TestSimulateEachPolicy(t *testing.T) {
	for _, pol := range AllPolicies() {
		o := fastOptions()
		o.Policy = pol
		o.QoPSSlackFactor = 2
		res, err := Simulate(o)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Summary.Met == 0 {
			t.Fatalf("%s: no jobs met", pol)
		}
		if res.Summary.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished jobs", pol, res.Summary.Unfinished)
		}
	}
}

func TestBackfillBeatsFCFSOnFulfilment(t *testing.T) {
	o := fastOptions()
	o.InaccuracyPct = 0
	o.Policy = PolicyFCFS
	fcfs, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Policy = PolicyBackfillEASY
	easy, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if easy.Summary.PctFulfilled < fcfs.Summary.PctFulfilled {
		t.Fatalf("EASY %.1f%% should be at least FCFS %.1f%%",
			easy.Summary.PctFulfilled, fcfs.Summary.PctFulfilled)
	}
}

func TestEstimatorOptionWiresPredictor(t *testing.T) {
	o := fastOptions()
	// Enough history per user for the predictor to learn, and a cluster
	// size that keeps the default workload near its calibrated load
	// (heavily overloaded clusters punish any loosening of estimates).
	o.Nodes = 64
	o.Jobs = 800
	o.Policy = PolicyLibra
	o.UserModel = true
	o.InaccuracyPct = 100
	raw, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Estimator = "scaling"
	corrected, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.Summary.PctFulfilled <= raw.Summary.PctFulfilled {
		t.Fatalf("scaling estimator %.1f%% should lift Libra above raw estimates %.1f%%",
			corrected.Summary.PctFulfilled, raw.Summary.PctFulfilled)
	}
	// Unknown estimator is rejected.
	o.Estimator = "oracle"
	if _, err := Simulate(o); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

func TestHeterogeneousRatings(t *testing.T) {
	o := fastOptions()
	o.Nodes = 0 // derived from NodeRatings
	o.NodeRatings = make([]float64, 16)
	for i := range o.NodeRatings {
		o.NodeRatings[i] = 168
		if i%2 == 0 {
			o.NodeRatings[i] = 336 // half the cluster twice as fast
		}
	}
	if o.NodeCount() != 16 {
		t.Fatalf("NodeCount = %d", o.NodeCount())
	}
	for _, pol := range []Policy{PolicyEDF, PolicyLibra, PolicyLibraRisk} {
		o.Policy = pol
		res, err := Simulate(o)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Summary.Met == 0 {
			t.Fatalf("%s: no jobs met on heterogeneous cluster", pol)
		}
	}
	// Faster nodes must help: compare against an all-slow cluster.
	slow := o
	slow.Policy = PolicyLibraRisk
	for i := range slow.NodeRatings {
		slow.NodeRatings[i] = 168
	}
	o.Policy = PolicyLibraRisk
	fast, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	slower, err := Simulate(slow)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Summary.PctFulfilled < slower.Summary.PctFulfilled {
		t.Fatalf("faster cluster fulfilled %.1f%% < slower %.1f%%",
			fast.Summary.PctFulfilled, slower.Summary.PctFulfilled)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	o := fastOptions()
	o.NodeRatings = []float64{168, -5}
	if err := o.Validate(); err == nil {
		t.Fatal("negative node rating accepted")
	}
}

func TestMonitorThroughFacade(t *testing.T) {
	o := fastOptions()
	o.Policy = PolicyLibraRisk
	o.MonitorInterval = 3600
	res, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Monitor) == 0 {
		t.Fatal("no monitor samples collected")
	}
	var sawBusy bool
	for _, s := range res.Monitor {
		if s.Utilization < 0 || s.Utilization > 1+1e-9 {
			t.Fatalf("utilization out of range: %+v", s)
		}
		if s.RunningJobs > 0 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Fatal("monitor never saw a running job on a loaded cluster")
	}
	// Monitoring off by default.
	o.MonitorInterval = 0
	res, err = Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Monitor) != 0 {
		t.Fatal("monitor samples present without MonitorInterval")
	}
	// Negative interval rejected.
	o.MonitorInterval = -1
	if _, err := Simulate(o); err == nil {
		t.Fatal("negative MonitorInterval accepted")
	}
}

func TestBuildFigurePrediction(t *testing.T) {
	o := fastOptions()
	o.Jobs = 80
	f, err := BuildFigure("prediction", o)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "prediction" || len(f.Panels) != 4 {
		t.Fatalf("figure = %q with %d panels", f.ID, len(f.Panels))
	}
}

func TestGenerateCalibratedWorkload(t *testing.T) {
	o := fastOptions()
	o.Jobs = 800
	src, err := GenerateWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSWF(&buf, src, o.Nodes); err != nil {
		t.Fatal(err)
	}
	clone, err := GenerateCalibratedWorkload(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(clone) != o.Jobs {
		t.Fatalf("clone size = %d", len(clone))
	}
	var srcMean, cloneMean float64
	for _, j := range src {
		srcMean += j.Runtime
	}
	for _, j := range clone {
		cloneMean += j.Runtime
	}
	srcMean /= float64(len(src))
	cloneMean /= float64(len(clone))
	if rel := (cloneMean - srcMean) / srcMean; rel > 0.35 || rel < -0.35 {
		t.Fatalf("clone mean runtime %.0f too far from source %.0f", cloneMean, srcMean)
	}
	for _, j := range clone {
		if j.Deadline <= 0 {
			t.Fatal("clone missing deadlines")
		}
	}
	// The clone must be simulatable.
	if _, err := SimulateJobs(o, clone); err != nil {
		t.Fatal(err)
	}
	// Garbage input fails cleanly.
	if _, err := GenerateCalibratedWorkload(strings.NewReader("1 2 3\n"), o); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

func TestSimulateManyMatchesSequential(t *testing.T) {
	var batch []Options
	for _, pol := range []Policy{PolicyEDF, PolicyLibra, PolicyLibraRisk} {
		o := fastOptions()
		o.Policy = pol
		batch = append(batch, o)
	}
	results, err := SimulateMany(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("results = %d", len(results))
	}
	for i, o := range batch {
		want, err := Simulate(o)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Summary != want.Summary {
			t.Fatalf("batch[%d] %+v != sequential %+v", i, results[i].Summary, want.Summary)
		}
		if results[i].Policy != o.Policy {
			t.Fatalf("batch[%d] order broken", i)
		}
	}
	// Validation failure aborts.
	bad := fastOptions()
	bad.Policy = "zap"
	if _, err := SimulateMany([]Options{fastOptions(), bad}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	// Empty batch is fine.
	if out, err := SimulateMany(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
}

func TestProviderEconomicsThroughFacade(t *testing.T) {
	o := fastOptions()
	o.InaccuracyPct = 0
	acc, err := ProviderEconomics(o)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Revenue <= 0 || acc.Profit != acc.Revenue-acc.Penalties {
		t.Fatalf("economy = %+v", acc)
	}
	if acc.Penalties != 0 {
		t.Fatalf("accurate estimates should incur no penalties: %+v", acc)
	}
	o.InaccuracyPct = 100
	tr, err := ProviderEconomics(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Profit >= acc.Profit {
		t.Fatalf("trace estimates should cost profit: %.0f vs %.0f", tr.Profit, acc.Profit)
	}
	bad := o
	bad.Jobs = 0
	if _, err := ProviderEconomics(bad); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestReportThroughFacade(t *testing.T) {
	o := fastOptions()
	o.UserModel = true
	out, err := Report(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fulfilled", "slowdown", "class", "Jain index"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	o.UserModel = false
	out, err = Report(o)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Jain index") {
		t.Fatal("fairness line should need the user model")
	}
	bad := o
	bad.Jobs = 0
	if _, err := Report(bad); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestReplicateThroughFacade(t *testing.T) {
	o := fastOptions()
	o.Jobs = 150
	rep, err := Replicate(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 3 {
		t.Fatalf("Seeds = %d", rep.Seeds)
	}
	if rep.FulfilledMean <= 0 || rep.FulfilledMean > 100 {
		t.Fatalf("FulfilledMean = %v", rep.FulfilledMean)
	}
	if rep.FulfilledCI95 < 0 || rep.SlowdownCI95 < 0 {
		t.Fatalf("negative CI: %+v", rep)
	}
	if _, err := Replicate(o, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	bad := o
	bad.Policy = "nope"
	if _, err := Replicate(bad, 2); err == nil {
		t.Fatal("bad options accepted")
	}
	// backfill-edf replicates as its own policy, not as EDF.
	bf := o
	bf.Policy = PolicyBackfillEDF
	edf := o
	edf.Policy = PolicyEDF
	bfRep, err := Replicate(bf, 2)
	if err != nil {
		t.Fatal(err)
	}
	edfRep, err := Replicate(edf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bfRep == edfRep {
		t.Errorf("backfill-edf replicates identically to edf: %+v", bfRep)
	}
}

// TestMaxEventsBudgetsEveryRun checks that MaxEvents reaches every run
// path: a budget too small for the run fails Simulate, Replicate and a
// figure build with the engine's budget error, and a budget large enough
// changes nothing.
func TestMaxEventsBudgetsEveryRun(t *testing.T) {
	o := fastOptions()
	o.Jobs = 150
	small := o
	small.MaxEvents = 100
	if _, err := Simulate(small); !errors.Is(err, sim.ErrEventBudget) {
		t.Errorf("Simulate(MaxEvents 100) err = %v, want the event budget error", err)
	}
	if _, err := Replicate(small, 2); !errors.Is(err, sim.ErrEventBudget) {
		t.Errorf("Replicate(MaxEvents 100) err = %v, want the event budget error", err)
	}
	b, err := NewFigureBuilder(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build("figure2"); !errors.Is(err, sim.ErrEventBudget) {
		t.Errorf("figure2 build (MaxEvents 100) err = %v, want the event budget error", err)
	}

	large := o
	large.MaxEvents = 1 << 40
	res, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	resLarge, err := Simulate(large)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resLarge) {
		t.Error("Simulate with a large MaxEvents differs from the default budget")
	}
	rep, err := Replicate(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if repLarge, err := Replicate(large, 2); err != nil || repLarge != rep {
		t.Errorf("Replicate with a large MaxEvents = %+v, %v; default budget %+v", repLarge, err, rep)
	}
}

// TestReplicateHonoursOptions checks that Replicate runs the policy the
// options describe: the σ threshold, fault processes and an online
// estimator each change the result.
func TestReplicateHonoursOptions(t *testing.T) {
	o := fastOptions()
	o.Jobs = 150
	replicate := func(o Options) Replication {
		t.Helper()
		rep, err := Replicate(o, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	strict := replicate(o)
	loose := o
	loose.RiskSigmaThreshold = 0.5
	if replicate(loose) == strict {
		t.Error("σ threshold 0.5 replicates identically to σ 0")
	}
	faulty := o
	faulty.FaultMTBF = 20000
	faulty.FaultMTTR = 3600
	if replicate(faulty) == strict {
		t.Error("fault injection replicates identically to a fault-free run")
	}
	users := o
	users.UserModel = true
	est := users
	est.Estimator = "scaling"
	if replicate(est) == replicate(users) {
		t.Error("the scaling estimator replicates identically to the user estimates")
	}
}

// TestQoPSSlackZeroMeansNoSlack pins one meaning of QoPSSlackFactor 0
// (hard deadlines) on the replication path, which once read 0 as 2.
func TestQoPSSlackZeroMeansNoSlack(t *testing.T) {
	o := fastOptions()
	o.Jobs = 150
	o.Policy = PolicyQoPS
	if got := DefaultOptions().QoPSSlackFactor; got != 2 {
		t.Errorf("default QoPSSlackFactor = %g, want 2", got)
	}
	o.QoPSSlackFactor = 2
	soft, err := Replicate(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	o.QoPSSlackFactor = 0
	hard, err := Replicate(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hard == soft {
		t.Fatal("QoPS slack 0 replicates identically to slack 2")
	}
}

// TestNodeRatingsMatchHomogeneousNodes checks that eight NodeRatings of
// the reference rating are the same cluster as Nodes = 8, on the
// replication and figure paths alike.
func TestNodeRatingsMatchHomogeneousNodes(t *testing.T) {
	hom := fastOptions()
	hom.Jobs = 80
	hom.Nodes = 8
	het := fastOptions()
	het.Jobs = 80
	het.NodeRatings = []float64{168, 168, 168, 168, 168, 168, 168, 168}
	a, err := Replicate(hom, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicate(het, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Replicate: NodeRatings %+v != Nodes %+v", b, a)
	}
	fa, err := BuildFigure("figure1", hom)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := BuildFigure("figure1", het)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa, fb) {
		t.Error("BuildFigure(figure1): NodeRatings figure differs from Nodes figure")
	}
}

func TestBuildExtensionFigures(t *testing.T) {
	o := fastOptions()
	o.Jobs = 80
	for _, id := range ExtensionFigureIDs() {
		f, err := BuildFigure(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if f.ID != id || len(f.Panels) == 0 {
			t.Fatalf("%s: figure = %+v", id, f.ID)
		}
	}
}

func TestQoPSSlackTradesMissesForAcceptance(t *testing.T) {
	hard := fastOptions()
	hard.Policy = PolicyQoPS
	hard.QoPSSlackFactor = 0
	soft := hard
	soft.QoPSSlackFactor = 3
	a, err := Simulate(hard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(soft)
	if err != nil {
		t.Fatal(err)
	}
	if b.Summary.AcceptanceRate < a.Summary.AcceptanceRate {
		t.Fatalf("slack 3 acceptance %.2f below slack 0 %.2f",
			b.Summary.AcceptanceRate, a.Summary.AcceptanceRate)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	o := fastOptions()
	a, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("summaries differ: %+v vs %+v", a.Summary, b.Summary)
	}
}

func TestSimulateAccurateVsTraceEstimates(t *testing.T) {
	o := fastOptions()
	o.InaccuracyPct = 0
	acc, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	o.InaccuracyPct = 100
	tr, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Summary.PctFulfilled >= acc.Summary.PctFulfilled {
		t.Fatalf("trace estimates (%.1f%%) should fulfil fewer jobs than accurate (%.1f%%)",
			tr.Summary.PctFulfilled, acc.Summary.PctFulfilled)
	}
	if acc.Summary.Missed != 0 {
		t.Fatalf("accurate estimates should not miss: %+v", acc.Summary)
	}
}

func TestOptionsValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Options)
	}{
		{"zero nodes", func(o *Options) { o.Nodes = 0 }},
		{"zero rating", func(o *Options) { o.Rating = 0 }},
		{"zero jobs", func(o *Options) { o.Jobs = 0 }},
		{"negative adf", func(o *Options) { o.ArrivalDelayFactor = -1 }},
		{"bad urgency", func(o *Options) { o.HighUrgencyFraction = 2 }},
		{"bad ratio", func(o *Options) { o.DeadlineRatio = 0.5 }},
		{"bad inaccuracy", func(o *Options) { o.InaccuracyPct = 150 }},
		{"bad policy", func(o *Options) { o.Policy = "magic" }},
		{"bad selection", func(o *Options) { o.NodeSelection = "zigzag" }},
		{"negative sigma", func(o *Options) { o.RiskSigmaThreshold = -1 }},
	}
	for _, m := range mutations {
		o := DefaultOptions()
		m.mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
		if _, err := Simulate(o); err == nil {
			t.Errorf("%s: Simulate accepted", m.name)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

// TestValidateRejectsNonFinite: NaN passes every `x <= 0`-style check and
// ±Inf passes most, so without a finiteness check such an option ran to
// a silently wrong result, failed deep in the engine, or (a NaN MTTR)
// panicked scheduling a repair at NaN time. Every float option must be
// refused up front, naming the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	crashes := func(o *Options) { o.FaultMTBF, o.FaultMTTR = 43200, 3600 }
	stragglers := func(o *Options) { o.FaultStragglerMTBF, o.FaultStragglerDuration = 86400, 600 }
	rows := []struct {
		field string
		mut   func(*Options)
	}{
		{"Rating", func(o *Options) { o.Rating = nan }},
		{"Rating", func(o *Options) { o.Rating = inf }},
		{"NodeRatings[1]", func(o *Options) { o.NodeRatings = []float64{168, inf} }},
		{"RiskSigmaThreshold", func(o *Options) { o.RiskSigmaThreshold = inf }},
		{"QoPSSlackFactor", func(o *Options) { o.QoPSSlackFactor = nan }},
		{"MonitorInterval", func(o *Options) { o.MonitorInterval = inf }},
		{"ArrivalDelayFactor", func(o *Options) { o.ArrivalDelayFactor = nan }},
		{"ArrivalDelayFactor", func(o *Options) { o.ArrivalDelayFactor = inf }},
		{"HighUrgencyFraction", func(o *Options) { o.HighUrgencyFraction = nan }},
		{"DeadlineRatio", func(o *Options) { o.DeadlineRatio = nan }},
		{"DeadlineRatio", func(o *Options) { o.DeadlineRatio = inf }},
		{"InaccuracyPct", func(o *Options) { o.InaccuracyPct = nan }},
		{"FaultMTBF", func(o *Options) { o.FaultMTBF = nan }},
		{"FaultMTTR", func(o *Options) { crashes(o); o.FaultMTTR = nan }},
		{"FaultStragglerMTBF", func(o *Options) { o.FaultStragglerMTBF = inf }},
		{"FaultStragglerDuration", func(o *Options) { stragglers(o); o.FaultStragglerDuration = nan }},
		{"FaultStragglerFactor", func(o *Options) { stragglers(o); o.FaultStragglerFactor = nan }},
		{"FaultCorrelatedMTBF", func(o *Options) { o.FaultCorrelatedMTBF = nan }},
		{"FaultCorrelatedMTTR", func(o *Options) { crashes(o); o.FaultCorrelatedMTBF, o.FaultCorrelatedMTTR = 86400, nan }},
		{"FaultHorizon", func(o *Options) { crashes(o); o.FaultHorizon = -inf }},
	}
	for _, r := range rows {
		o := DefaultOptions()
		o.Nodes, o.Jobs = 16, 50
		r.mut(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), r.field+" = ") {
			t.Errorf("%s: Validate() = %v, want an error naming the field", r.field, err)
		}
		if _, err := Simulate(o); err == nil {
			t.Errorf("%s: Simulate accepted a non-finite option", r.field)
		}
	}
}

func TestGenerateWorkloadAndSimulateJobs(t *testing.T) {
	o := fastOptions()
	jobs, err := GenerateWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != o.Jobs {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if j.Runtime <= 0 || j.Deadline <= j.Runtime*1.0 {
			t.Fatalf("bad job %+v", j)
		}
	}
	res, err := SimulateJobs(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Must equal the all-in-one path.
	direct, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary != direct.Summary {
		t.Fatalf("SimulateJobs %+v != Simulate %+v", res.Summary, direct.Summary)
	}
}

func TestSWFRoundTripThroughPublicAPI(t *testing.T) {
	o := fastOptions()
	jobs, err := GenerateWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSWF(&buf, jobs, o.Nodes); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSWF(&buf, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(jobs) {
		t.Fatalf("loaded %d of %d jobs", len(loaded), len(jobs))
	}
	// Deadlines are re-assigned on load; runtimes survive modulo rounding.
	for i := range jobs {
		if d := loaded[i].Runtime - jobs[i].Runtime; d > 1 || d < -1 {
			t.Fatalf("job %d runtime drifted: %v vs %v", i, loaded[i].Runtime, jobs[i].Runtime)
		}
		if loaded[i].Deadline <= 0 {
			t.Fatalf("job %d lost its deadline", i)
		}
	}
	if _, err := SimulateJobs(o, loaded); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSWFLastN(t *testing.T) {
	o := fastOptions()
	jobs, err := GenerateWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSWF(&buf, jobs, o.Nodes); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSWF(&buf, o, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 50 {
		t.Fatalf("LastN kept %d", len(loaded))
	}
	if loaded[0].Submit != 0 {
		t.Fatalf("LastN must rebase: first submit %v", loaded[0].Submit)
	}
}

func TestLoadSWFCapsToHeterogeneousCluster(t *testing.T) {
	o := fastOptions()
	jobs, err := GenerateWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	het := o
	het.NodeRatings = []float64{168, 336, 168, 336, 168, 336, 168, 336}
	wide := 0
	for _, j := range jobs {
		if j.NumProc > het.NodeCount() {
			wide++
		}
	}
	if wide == 0 {
		t.Fatalf("no source job wider than %d nodes; the test needs one", het.NodeCount())
	}
	var buf bytes.Buffer
	if err := SaveSWF(&buf, jobs, o.Nodes); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSWF(&buf, het, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range loaded {
		if j.NumProc > het.NodeCount() {
			t.Fatalf("job %d requests %d processors on a %d-node cluster", j.ID, j.NumProc, het.NodeCount())
		}
	}
}

func TestBuildFigureSmall(t *testing.T) {
	o := fastOptions()
	o.Jobs = 80
	f, err := BuildFigure("figure2", o)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "figure2" || len(f.Panels) != 4 {
		t.Fatalf("figure = %q with %d panels", f.ID, len(f.Panels))
	}
	var buf bytes.Buffer
	if err := RenderFigure(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figure2", "EDF", "Libra", "LibraRisk", "deadline high:low ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out[:min(len(out), 800)])
		}
	}
	buf.Reset()
	if err := RenderFigureCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "figure,panel,policy,x,y\n") {
		t.Fatal("CSV header missing")
	}
}

func TestBuildFigureUnknownID(t *testing.T) {
	if _, err := BuildFigure("figure9", fastOptions()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 4 || ids[0] != "figure1" || ids[3] != "figure4" {
		t.Fatalf("FigureIDs = %v", ids)
	}
}

func TestRenderWorkloadTable(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderWorkloadTable(&buf, fastOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workload characteristics") {
		t.Fatalf("table output:\n%s", buf.String())
	}
}

func TestNodeSelectionAffectsLibra(t *testing.T) {
	best := fastOptions()
	best.Policy = PolicyLibra
	best.NodeSelection = SelectBestFit
	worst := best
	worst.NodeSelection = SelectWorstFit
	a, err := Simulate(best)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(worst)
	if err != nil {
		t.Fatal(err)
	}
	// They need not produce identical outcomes; just both run and record.
	if a.Summary.Submitted != b.Summary.Submitted {
		t.Fatalf("submitted differ: %d vs %d", a.Summary.Submitted, b.Summary.Submitted)
	}
}

func TestRiskSigmaThresholdLoosensAdmission(t *testing.T) {
	strict := fastOptions()
	strict.Policy = PolicyLibraRisk
	loose := strict
	loose.RiskSigmaThreshold = 1e9
	a, err := Simulate(strict)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(loose)
	if err != nil {
		t.Fatal(err)
	}
	if b.Summary.Rejected > a.Summary.Rejected {
		t.Fatalf("looser threshold rejected more: %d vs %d", b.Summary.Rejected, a.Summary.Rejected)
	}
}
