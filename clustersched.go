// Package clustersched is a cluster scheduling laboratory reproducing
// "Managing Risk of Inaccurate Runtime Estimates for Deadline Constrained
// Job Admission Control in Clusters" (Yeo & Buyya, ICPP 2006).
//
// It provides three deadline-constrained admission-control policies — EDF,
// Libra, and the paper's contribution LibraRisk — on top of a from-scratch
// discrete-event cluster simulator, a Standard Workload Format trace
// substrate, a calibrated synthetic SDSC SP2 workload generator, and an
// experiment harness that regenerates every figure of the paper's
// evaluation.
//
// The quickest start:
//
//	res, err := clustersched.Simulate(clustersched.DefaultOptions())
//	fmt.Println(res.Summary.PctFulfilled)
//
// See examples/ for runnable scenarios and cmd/experiments for the full
// figure regeneration.
package clustersched

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"clustersched/internal/analysis"
	"clustersched/internal/checkpoint"
	"clustersched/internal/experiment"
	"clustersched/internal/fault"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
	"clustersched/internal/swf"
	"clustersched/internal/workload"
)

// Policy names an admission-control strategy.
type Policy string

// The built-in policies. EDF and Libra are the paper's baselines;
// LibraRisk is its contribution. The remaining four are related-work
// comparators from the paper's §2 (classic FCFS, EASY and conservative
// backfilling, and a QoPS-style slack admission control) provided as
// extensions.
const (
	PolicyEDF                  Policy = "edf"
	PolicyLibra                Policy = "libra"
	PolicyLibraRisk            Policy = "librarisk"
	PolicyFCFS                 Policy = "fcfs"
	PolicyBackfillEASY         Policy = "backfill-easy"
	PolicyBackfillConservative Policy = "backfill-conservative"
	PolicyBackfillEDF          Policy = "backfill-edf"
	PolicyQoPS                 Policy = "qops"
)

// AllPolicies lists every built-in policy, paper policies first.
func AllPolicies() []Policy {
	return []Policy{
		PolicyEDF, PolicyLibra, PolicyLibraRisk,
		PolicyFCFS, PolicyBackfillEASY, PolicyBackfillConservative,
		PolicyBackfillEDF, PolicyQoPS,
	}
}

// NodeSelection names how Libra-family policies order suitable nodes.
type NodeSelection string

// Node selection strategies: best-fit saturates nodes (Libra's default),
// first-fit walks them in index order (LibraRisk's Algorithm 1), worst-fit
// levels load.
const (
	SelectBestFit  NodeSelection = "best-fit"
	SelectFirstFit NodeSelection = "first-fit"
	SelectWorstFit NodeSelection = "worst-fit"
)

// Options configures a simulation end to end. Zero values select the
// paper's defaults via DefaultOptions; construct Options from
// DefaultOptions and override fields.
type Options struct {
	// Cluster geometry.
	Nodes  int     // computation nodes (default 128, the SDSC SP2)
	Rating float64 // SPEC rating per node (default 168)
	// NodeRatings, when non-empty, builds a heterogeneous cluster with
	// one node per entry (overriding Nodes); Rating stays the reference
	// rating in which runtimes and estimates are expressed.
	NodeRatings []float64

	// Policy under test and its knobs.
	Policy        Policy
	NodeSelection NodeSelection // empty selects the policy's own default
	// RiskSigmaThreshold relaxes LibraRisk's zero-risk rule to σ ≤ t.
	RiskSigmaThreshold float64
	// QoPSSlackFactor is how many estimated runtimes a QoPS-admitted
	// job's deadline may slip to accommodate later urgent jobs (default
	// 2; 0 means hard deadlines).
	QoPSSlackFactor float64
	// Estimator selects the runtime-estimate source the scheduler sees:
	// "" or "user-estimate" uses the (inaccuracy-blended) user estimates;
	// "recent-average" and "scaling" apply history-based online
	// prediction (enable UserModel for these to have per-user history).
	Estimator string
	// UserModel, when true, generates the workload with a persistent-user
	// population (skewed activity, per-user estimation styles and runtime
	// locality) instead of the job-level estimate mixture.
	UserModel bool
	// MonitorInterval, when positive, samples cluster utilization and
	// live deadline-delay risk at this period (seconds of simulated
	// time); samples appear in Result.Monitor. Time-shared policies only
	// (libra, librarisk).
	MonitorInterval float64
	// WorkConserving selects whether nodes redistribute unused share
	// (default true; false is the strict eq.-1 reading).
	WorkConserving bool

	// Workload synthesis.
	Jobs               int
	Seed               uint64
	ArrivalDelayFactor float64 // < 1 compresses arrivals (heavier load)

	// Deadline model (§4).
	HighUrgencyFraction float64 // 0..1
	DeadlineRatio       float64 // deadline high:low ratio
	// InaccuracyPct: 0 = accurate estimates, 100 = trace estimates.
	InaccuracyPct float64

	// Fault injection (internal/fault): deterministic seeded failure
	// processes. FaultMTBF > 0 enables per-node crash/recovery cycles
	// (exponential MTBF/MTTR); FaultStragglerMTBF > 0 enables transient
	// slowdown episodes; FaultCorrelatedMTBF > 0 enables correlated
	// multi-node outages. Only the edf, libra and librarisk policies have
	// failure-recovery semantics. All durations are seconds of simulated
	// time; zero values disable each process and, when all are disabled,
	// the run is bit-identical to one without the fault layer.
	FaultSeed              uint64
	FaultMTBF              float64
	FaultMTTR              float64
	FaultStragglerMTBF     float64
	FaultStragglerDuration float64
	FaultStragglerFactor   float64
	FaultCorrelatedMTBF    float64
	FaultCorrelatedSize    int
	FaultCorrelatedMTTR    float64
	// FaultHorizon bounds fault activity; 0 defaults to the last job
	// arrival of the (scaled) workload.
	FaultHorizon float64

	// CheckInvariants re-validates model invariants (clock monotonicity,
	// job conservation, cluster structural state) after every simulation
	// event and fails the run on the first violation. Costs roughly one
	// cluster scan per event; meant for tests and debugging.
	CheckInvariants bool
	// MaxEvents overrides the engine's runaway-loop event budget
	// (default 50M) of every run: Simulate's, Replicate's and each
	// figure cell's. A run that exhausts it fails.
	MaxEvents uint64
}

// faultConfig assembles the internal fault configuration; a zero horizon
// is defaulted by the run to its last job arrival.
func (o Options) faultConfig() fault.Config {
	return fault.Config{
		Seed:              o.FaultSeed,
		MTBF:              o.FaultMTBF,
		MTTR:              o.FaultMTTR,
		StragglerMTBF:     o.FaultStragglerMTBF,
		StragglerDuration: o.FaultStragglerDuration,
		StragglerFactor:   o.FaultStragglerFactor,
		CorrelatedMTBF:    o.FaultCorrelatedMTBF,
		CorrelatedSize:    o.FaultCorrelatedSize,
		CorrelatedMTTR:    o.FaultCorrelatedMTTR,
		Horizon:           o.FaultHorizon,
	}
}

// DefaultOptions returns the paper's experimental defaults with the
// LibraRisk policy selected.
func DefaultOptions() Options {
	return Options{
		Nodes:               workload.SDSCSP2Nodes,
		Rating:              workload.SDSCSP2Rating,
		Policy:              PolicyLibraRisk,
		WorkConserving:      true,
		Jobs:                workload.TraceJobs,
		Seed:                1,
		ArrivalDelayFactor:  workload.DefaultArrivalDelayFactor,
		HighUrgencyFraction: workload.DefaultHighUrgencyFraction,
		DeadlineRatio:       workload.DefaultDeadlineRatio,
		InaccuracyPct:       100,
		QoPSSlackFactor:     2,
	}
}

// Job is one unit of work: real runtime and user estimate in seconds of
// dedicated execution on a reference-rating node, a processor requirement,
// and a hard deadline relative to submission.
type Job struct {
	ID            int
	Submit        float64
	Runtime       float64
	TraceEstimate float64
	NumProc       int
	Deadline      float64
	HighUrgency   bool
}

// Outcome classifies a submitted job's fate.
type Outcome string

// Job outcomes.
const (
	OutcomeRejected   Outcome = "rejected"
	OutcomeMet        Outcome = "met"
	OutcomeMissed     Outcome = "missed"
	OutcomeUnfinished Outcome = "unfinished"
)

// JobOutcome is the per-job record of one simulation.
type JobOutcome struct {
	JobID    int
	Outcome  Outcome
	Finish   float64
	Response float64
	Delay    float64
	Slowdown float64
	Reason   string
}

// Summary aggregates one simulation run; PctFulfilled and AvgSlowdownMet
// are the paper's two evaluation metrics.
type Summary struct {
	Submitted      int
	Rejected       int
	Completed      int
	Met            int
	Missed         int
	Unfinished     int
	MetHighUrgency int
	MetLowUrgency  int
	// Killed counts node-crash teardowns of running jobs (fault injection
	// only); killed jobs are resubmitted, so this is not part of the
	// Submitted decomposition.
	Killed         int
	PctFulfilled   float64
	AvgSlowdownMet float64
	AcceptanceRate float64
}

// MonitorSample is one periodic observation of the cluster (see
// Options.MonitorInterval).
type MonitorSample struct {
	Time          float64
	Utilization   float64
	RunningJobs   int
	BusyNodes     int
	MeanSigma     float64
	MeanMu        float64
	DelayedJobs   int
	ZeroRiskNodes int
	// DownNodes counts crashed nodes at the sample instant (fault
	// injection only); down nodes are excluded from the other aggregates.
	DownNodes int
}

// Result is a completed simulation.
type Result struct {
	Policy  Policy
	Summary Summary
	Jobs    []JobOutcome
	// Monitor holds the time series when Options.MonitorInterval was set
	// and the policy runs on a time-shared cluster.
	Monitor []MonitorSample
}

// NodeCount returns the effective cluster size: len(NodeRatings) when a
// heterogeneous cluster is configured, Nodes otherwise.
func (o Options) NodeCount() int {
	if len(o.NodeRatings) > 0 {
		return len(o.NodeRatings)
	}
	return o.Nodes
}

// Validate reports the first error in the options.
func (o Options) Validate() error {
	for i, r := range o.NodeRatings {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("clustersched: NodeRatings[%d] = %g, want finite > 0", i, r)
		}
	}
	// NaN passes every comparison below and ±Inf passes most, so each
	// float field must first be finite.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Rating", o.Rating}, {"RiskSigmaThreshold", o.RiskSigmaThreshold},
		{"QoPSSlackFactor", o.QoPSSlackFactor}, {"MonitorInterval", o.MonitorInterval},
		{"ArrivalDelayFactor", o.ArrivalDelayFactor}, {"HighUrgencyFraction", o.HighUrgencyFraction},
		{"DeadlineRatio", o.DeadlineRatio}, {"InaccuracyPct", o.InaccuracyPct},
		{"FaultMTBF", o.FaultMTBF}, {"FaultMTTR", o.FaultMTTR},
		{"FaultStragglerMTBF", o.FaultStragglerMTBF}, {"FaultStragglerDuration", o.FaultStragglerDuration},
		{"FaultStragglerFactor", o.FaultStragglerFactor}, {"FaultCorrelatedMTBF", o.FaultCorrelatedMTBF},
		{"FaultCorrelatedMTTR", o.FaultCorrelatedMTTR}, {"FaultHorizon", o.FaultHorizon},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("clustersched: %s = %g, want a finite number", f.name, f.v)
		}
	}
	switch {
	case o.MonitorInterval < 0:
		return fmt.Errorf("clustersched: MonitorInterval = %g, want >= 0", o.MonitorInterval)
	case o.NodeCount() <= 0:
		return fmt.Errorf("clustersched: Nodes = %d, want > 0", o.Nodes)
	case o.Rating <= 0:
		return fmt.Errorf("clustersched: Rating = %g, want > 0", o.Rating)
	case o.Jobs <= 0:
		return fmt.Errorf("clustersched: Jobs = %d, want > 0", o.Jobs)
	case o.ArrivalDelayFactor < 0:
		return fmt.Errorf("clustersched: ArrivalDelayFactor = %g, want >= 0", o.ArrivalDelayFactor)
	case o.HighUrgencyFraction < 0 || o.HighUrgencyFraction > 1:
		return fmt.Errorf("clustersched: HighUrgencyFraction = %g, want in [0,1]", o.HighUrgencyFraction)
	case o.DeadlineRatio < 1:
		return fmt.Errorf("clustersched: DeadlineRatio = %g, want >= 1", o.DeadlineRatio)
	case o.InaccuracyPct < 0 || o.InaccuracyPct > 100:
		return fmt.Errorf("clustersched: InaccuracyPct = %g, want in [0,100]", o.InaccuracyPct)
	case o.RiskSigmaThreshold < 0:
		return fmt.Errorf("clustersched: RiskSigmaThreshold = %g, want >= 0", o.RiskSigmaThreshold)
	case o.QoPSSlackFactor < 0:
		return fmt.Errorf("clustersched: QoPSSlackFactor = %g, want >= 0", o.QoPSSlackFactor)
	}
	if _, ok := experiment.PolicyKindOf(string(o.Policy)); !ok {
		return fmt.Errorf("clustersched: unknown policy %q", o.Policy)
	}
	switch o.NodeSelection {
	case "", SelectBestFit, SelectFirstFit, SelectWorstFit:
	default:
		return fmt.Errorf("clustersched: unknown node selection %q", o.NodeSelection)
	}
	if fc := o.faultConfig(); fc.Enabled() {
		switch o.Policy {
		case PolicyEDF, PolicyLibra, PolicyLibraRisk:
		default:
			return fmt.Errorf("clustersched: policy %q has no failure-recovery semantics; faults require edf, libra or librarisk", o.Policy)
		}
		// Validate with a placeholder horizon: the real default (last job
		// arrival) is only known at run time, but every other
		// consistency error should surface here.
		if fc.Horizon == 0 {
			fc.Horizon = 1
		}
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("clustersched: %w", err)
		}
	}
	switch o.Estimator {
	case "", "user-estimate", "recent-average", "scaling":
	default:
		return fmt.Errorf("clustersched: unknown estimator %q", o.Estimator)
	}
	return nil
}

// GenerateWorkload synthesizes the SDSC-SP2-like job stream (with
// deadlines assigned) the options describe, before arrival scaling.
func GenerateWorkload(o Options) ([]Job, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	jobs, err := internalWorkload(o)
	if err != nil {
		return nil, err
	}
	return fromInternalJobs(jobs), nil
}

func internalWorkload(o Options) ([]workload.Job, error) {
	base := buildBase(o)
	jobs, err := experiment.GenerateBase(base)
	if err != nil {
		return nil, err
	}
	return workload.AssignDeadlines(jobs, base.Deadline)
}

// SimulateMany runs several independent simulations concurrently (one
// worker per CPU) and returns their results in input order. Each Options
// value is validated; the first failure aborts the batch.
func SimulateMany(opts []Options) ([]Result, error) {
	return SimulateManyContext(context.Background(), opts)
}

// SimulateManyContext is SimulateMany under a cancellable context:
// cancellation stops admitting new simulations, aborts the in-flight ones
// at event-loop granularity, and returns the cancellation cause.
func SimulateManyContext(ctx context.Context, opts []Options) ([]Result, error) {
	for i := range opts {
		if err := opts[i].Validate(); err != nil {
			return nil, fmt.Errorf("options[%d]: %w", i, err)
		}
	}
	results := make([]Result, len(opts))
	errs := make([]error, len(opts))
	started := make([]bool, len(opts))
	experiment.RunPool(ctx, len(opts), min(runtime.GOMAXPROCS(0), len(opts)), func(_, i int) {
		started[i] = true
		results[i], errs[i] = SimulateContext(ctx, opts[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("options[%d]: %w", i, err)
		}
	}
	// Simulations never admitted (cancellation stopped the pool) must not
	// pass as successful zero-value results.
	if err := ctx.Err(); err != nil {
		for i := range started {
			if !started[i] {
				return nil, fmt.Errorf("options[%d]: %w", i, err)
			}
		}
	}
	return results, nil
}

// Simulate generates the workload and runs the selected policy over it.
func Simulate(o Options) (Result, error) {
	return SimulateContext(context.Background(), o)
}

// SimulateContext is Simulate under a cancellable context: the event loop
// polls ctx and aborts the run with the cancellation cause.
func SimulateContext(ctx context.Context, o Options) (Result, error) {
	rec, _, mon, err := simulateWorkload(ctx, o)
	if err != nil {
		return Result{}, err
	}
	return result(o, rec, mon), nil
}

// SimulateJobs runs the selected policy over a caller-provided workload
// (for example one loaded from an SWF trace via LoadSWF). Jobs must be in
// nondecreasing submit order.
func SimulateJobs(o Options, jobs []Job) (Result, error) {
	return SimulateJobsContext(context.Background(), o, jobs)
}

// SimulateJobsContext is SimulateJobs under a cancellable context.
func SimulateJobsContext(ctx context.Context, o Options, jobs []Job) (Result, error) {
	if err := o.Validate(); err != nil {
		return Result{}, err
	}
	rec, _, mon, err := simulate(ctx, o, toInternalJobs(jobs))
	if err != nil {
		return Result{}, err
	}
	return result(o, rec, mon), nil
}

// Economy is the provider-side ledger of one simulation under the default
// SLA pricing: urgency-premium revenue for fulfilled jobs, delay penalties
// for missed ones, forgone revenue for rejections.
type Economy struct {
	Revenue          float64
	Penalties        float64
	Profit           float64
	ForgoneRevenue   float64
	FulfilledProcHrs float64
}

// ProviderEconomics runs the configured simulation and prices its
// outcomes, translating the paper's deadline metrics into provider money.
func ProviderEconomics(o Options) (Economy, error) {
	rec, jobs, _, err := simulateWorkload(context.Background(), o)
	if err != nil {
		return Economy{}, err
	}
	eco, err := analysis.Economics(rec, jobs, analysis.DefaultPricing())
	if err != nil {
		return Economy{}, err
	}
	return Economy{
		Revenue: eco.Revenue, Penalties: eco.Penalties, Profit: eco.Profit,
		ForgoneRevenue: eco.ForgoneRevenue, FulfilledProcHrs: eco.FulfilledProcHrs,
	}, nil
}

// Report runs the configured simulation and returns a rendered analysis
// report: class breakdowns, slowdown/response distributions, bounded
// slowdown, rejection-reason tallies, and (with UserModel) Jain's
// per-user fairness index.
func Report(o Options) (string, error) {
	rec, jobs, _, err := simulateWorkload(context.Background(), o)
	if err != nil {
		return "", err
	}
	rep := analysis.Build(rec, jobs)
	var sb strings.Builder
	if err := analysis.WriteReport(&sb, rep); err != nil {
		return "", err
	}
	if o.UserModel {
		fmt.Fprintf(&sb, "user fairness Jain index %.3f\n", analysis.JainFairness(rec, jobs))
	}
	eco, err := analysis.Economics(rec, jobs, analysis.DefaultPricing())
	if err != nil {
		return "", err
	}
	sb.WriteString("\nprovider economics (default SLA pricing):\n")
	if err := analysis.WriteEconomy(&sb, eco); err != nil {
		return "", err
	}
	if tl := analysis.Timeline(rec.Results(), 16); tl != nil {
		sb.WriteString("\n")
		if err := analysis.WriteTimeline(&sb, tl, o.NodeCount()); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

// simulateWorkload validates the options, generates their workload and
// simulates it (see simulate).
func simulateWorkload(ctx context.Context, o Options) (*metrics.Recorder, []workload.Job, []MonitorSample, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, nil, err
	}
	jobs, err := internalWorkload(o)
	if err != nil {
		return nil, nil, nil, err
	}
	return simulate(ctx, o, jobs)
}

// simulate scales the arrivals of jobs, whose deadlines are already set,
// and runs the one simulation plan describes over them. It returns the
// run's recorder, the scaled jobs and the monitor samples.
func simulate(ctx context.Context, o Options, jobs []workload.Job) (*metrics.Recorder, []workload.Job, []MonitorSample, error) {
	base, spec := plan(o)
	jobs = workload.ScaleArrivals(jobs, spec.ArrivalDelayFactor)
	rec, mon, err := experiment.RunJobs(ctx, base, jobs, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	var samples []MonitorSample
	if mon != nil {
		for _, s := range mon.Samples() {
			samples = append(samples, MonitorSample{
				Time: s.Time, Utilization: s.Utilization, RunningJobs: s.RunningJobs,
				BusyNodes: s.BusyNodes, MeanSigma: s.MeanSigma, MeanMu: s.MeanMu,
				DelayedJobs: s.DelayedJobs, ZeroRiskNodes: s.ZeroRiskNodes,
				DownNodes: s.DownNodes,
			})
		}
	}
	return rec, jobs, samples, nil
}

// result is the public record of one completed run.
func result(o Options, rec *metrics.Recorder, mon []MonitorSample) Result {
	return Result{Policy: o.Policy, Summary: toSummary(rec.Summarize()), Jobs: toOutcomes(rec.Results()), Monitor: mon}
}

// policyParams returns the policy knobs in sched.NewPolicy's terms.
func (o Options) policyParams() sched.PolicyParams {
	return sched.PolicyParams{
		Selection:      string(o.NodeSelection),
		SigmaThreshold: o.RiskSigmaThreshold,
		QoPSSlack:      o.QoPSSlackFactor,
	}
}

func toSummary(s metrics.Summary) Summary {
	return Summary{
		Submitted: s.Submitted, Rejected: s.Rejected, Completed: s.Completed,
		Met: s.Met, Missed: s.Missed, Unfinished: s.Unfinished,
		MetHighUrgency: s.MetHigh, MetLowUrgency: s.MetLow, Killed: s.Killed,
		PctFulfilled: s.PctFulfilled, AvgSlowdownMet: s.AvgSlowdownMet,
		AcceptanceRate: s.AcceptanceRate,
	}
}

func toOutcomes(rs []metrics.JobResult) []JobOutcome {
	out := make([]JobOutcome, len(rs))
	for i, r := range rs {
		o := JobOutcome{
			JobID: r.JobID, Finish: r.Finish, Response: r.Response,
			Delay: r.Delay, Slowdown: r.Slowdown, Reason: r.Reason,
		}
		switch r.Outcome {
		case metrics.Rejected:
			o.Outcome = OutcomeRejected
		case metrics.Met:
			o.Outcome = OutcomeMet
		case metrics.Missed:
			o.Outcome = OutcomeMissed
		default:
			o.Outcome = OutcomeUnfinished
		}
		out[i] = o
	}
	return out
}

func toInternalJobs(jobs []Job) []workload.Job {
	out := make([]workload.Job, len(jobs))
	for i, j := range jobs {
		cls := workload.LowUrgency
		if j.HighUrgency {
			cls = workload.HighUrgency
		}
		out[i] = workload.Job{
			ID: j.ID, Submit: j.Submit, Runtime: j.Runtime,
			TraceEstimate: j.TraceEstimate, NumProc: j.NumProc,
			Deadline: j.Deadline, Class: cls,
		}
	}
	return out
}

func fromInternalJobs(jobs []workload.Job) []Job {
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = Job{
			ID: j.ID, Submit: j.Submit, Runtime: j.Runtime,
			TraceEstimate: j.TraceEstimate, NumProc: j.NumProc,
			Deadline: j.Deadline, HighUrgency: j.Class == workload.HighUrgency,
		}
	}
	return out
}

// LoadSWF parses a Standard Workload Format trace (e.g. the real SDSC SP2
// archive file; gzip-compressed .swf.gz streams are detected and handled
// transparently), keeps the last lastN runnable jobs (0 keeps all), and
// assigns deadlines per the options' deadline model.
func LoadSWF(r io.Reader, o Options, lastN int) ([]Job, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	tr, err := swf.ParseAuto(r)
	if err != nil {
		return nil, err
	}
	tr = tr.CompletedOnly()
	if lastN > 0 {
		tr = tr.LastN(lastN)
	}
	jobs, err := workload.FromSWF(tr, o.NodeCount())
	if err != nil {
		return nil, err
	}
	withDL, err := workload.AssignDeadlines(jobs, buildBase(o).Deadline)
	if err != nil {
		return nil, err
	}
	return fromInternalJobs(withDL), nil
}

// SaveSWF writes jobs as a Standard Workload Format trace.
func SaveSWF(w io.Writer, jobs []Job, maxNodes int) error {
	return swf.Write(w, workload.ToSWF(toInternalJobs(jobs), maxNodes))
}

// GenerateCalibratedWorkload fits the synthetic generator to a real SWF
// trace (arrival intensity and burstiness, runtime distribution,
// processor mix, estimate error mixture) and generates a statistically
// matching synthetic workload of o.Jobs jobs with deadlines assigned per
// the options — the privacy-preserving way to run the experiment suite
// against a site's own trace without shipping the trace.
func GenerateCalibratedWorkload(r io.Reader, o Options) ([]Job, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	tr, err := swf.ParseAuto(r)
	if err != nil {
		return nil, err
	}
	gen, err := workload.Calibrate(tr.CompletedOnly(), o.NodeCount())
	if err != nil {
		return nil, err
	}
	gen.Jobs = o.Jobs
	gen.Seed = o.Seed
	base, err := workload.Generate(gen)
	if err != nil {
		return nil, err
	}
	withDL, err := workload.AssignDeadlines(base, buildBase(o).Deadline)
	if err != nil {
		return nil, err
	}
	return fromInternalJobs(withDL), nil
}

// BuildFigure regenerates one figure (see FigureIDs and
// ExtensionFigureIDs) at the given scale. Pass DefaultOptions() for the
// paper-scale run; smaller Jobs/Nodes values sweep faster.
func BuildFigure(id string, o Options) (Figure, error) {
	b, err := NewFigureBuilder(o)
	if err != nil {
		return Figure{}, err
	}
	return b.Build(id)
}

// FigureBuilder regenerates the paper's figures and workload table while
// generating the shared base workload only once, instead of once per
// figure. Extension figures other than "chaos" (see ExtensionFigureIDs)
// manage their own workload variations.
type FigureBuilder struct {
	o    Options
	base experiment.BaseConfig
	jobs []workload.Job
}

// NewFigureBuilder validates the options and prepares a builder; the base
// workload is generated lazily on the first figure or table request.
// Every cell runs under the options' MaxEvents budget.
func NewFigureBuilder(o Options) (*FigureBuilder, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &FigureBuilder{o: o, base: buildBase(o)}, nil
}

func (b *FigureBuilder) baseJobs() ([]workload.Job, error) {
	if b.jobs == nil {
		jobs, err := experiment.GenerateBase(b.base)
		if err != nil {
			return nil, err
		}
		b.jobs = jobs
	}
	return b.jobs, nil
}

// BuildProgress is one sweep-progress notification (see SetProgress):
// Done of Total cells have finished; Cell identifies the one that just
// did. FromJournal marks a cell satisfied from the checkpoint journal
// instead of being run; Err is non-nil when the cell failed.
type BuildProgress struct {
	Done        int
	Total       int
	Cell        string
	FromJournal bool
	Err         error
}

// SetWorkers caps the builder's sweep parallelism; n <= 0 restores the
// default (one worker per CPU).
func (b *FigureBuilder) SetWorkers(n int) { b.base.Workers = n }

// SetProgress installs a callback invoked after every finished sweep
// cell. Calls are serialized; fn must not block for long. Pass nil to
// remove it.
func (b *FigureBuilder) SetProgress(fn func(BuildProgress)) {
	if fn == nil {
		b.base.Progress = nil
		return
	}
	b.base.Progress = func(ev experiment.ProgressEvent) {
		fn(BuildProgress{
			Done: ev.Done, Total: ev.Total, Cell: ev.Spec.Ident(),
			FromJournal: ev.FromJournal, Err: ev.Err,
		})
	}
}

// OpenJournal attaches a checkpoint journal at path to the builder:
// every completed sweep cell of the paper figures (and the chaos
// experiment) is recorded there as it finishes, and cells already present
// — keyed by a content hash of the configuration, cell parameters and
// workload — are reused instead of re-run. The file is created if
// missing and is valid JSONL after every append, so an interrupted
// regeneration resumes from it losslessly. Returns the number of cells
// loaded from an existing journal.
func (b *FigureBuilder) OpenJournal(path string) (int, error) {
	j, err := checkpoint.Open(path)
	if err != nil {
		return 0, err
	}
	b.base.Journal = j
	return j.Len(), nil
}

// ObserveConfig selects which observability layers the builder records
// (see Observe). All layers off is valid and records nothing.
type ObserveConfig struct {
	// Trace records per-event simulation traces (job lifecycle, node
	// state, faults) for export as Chrome trace_event JSON or JSONL.
	Trace bool
	// Metrics accumulates counters/gauges/histograms across every run for
	// export in Prometheus text or JSON snapshot format.
	Metrics bool
	// Audit records every admission decision with its per-node evaluation
	// (risk σ for LibraRisk, share for Libra) and rejection reason.
	Audit bool
}

// Observation is the accumulated observability output of a builder's
// sweeps, merged deterministically across parallel workers: events and
// decisions are ordered by (run tag, sequence) regardless of worker
// interleaving. Cells satisfied from a checkpoint journal were not re-run
// and contribute no observations.
type Observation struct {
	sweep *obs.Sweep
}

// Empty reports whether nothing was recorded (all layers off, or no runs).
func (o *Observation) Empty() bool { return o == nil || o.sweep == nil }

// EventCount returns the number of trace events recorded.
func (o *Observation) EventCount() int {
	if o.Empty() {
		return 0
	}
	return len(o.sweep.Events())
}

// DecisionCount returns the number of admission decisions audited.
func (o *Observation) DecisionCount() int {
	if o.Empty() {
		return 0
	}
	return len(o.sweep.Decisions())
}

// WriteChromeTrace writes the recorded events as a Chrome trace_event
// JSON document (load in chrome://tracing or Perfetto). Each run becomes
// a process; job lifecycles become spans.
func (o *Observation) WriteChromeTrace(w io.Writer) error {
	if o.Empty() {
		return obs.WriteChromeTrace(w, nil)
	}
	return obs.WriteChromeTrace(w, o.sweep.Events())
}

// WriteTraceJSONL writes the recorded events as one JSON object per line.
func (o *Observation) WriteTraceJSONL(w io.Writer) error {
	if o.Empty() {
		return nil
	}
	return obs.WriteJSONL(w, o.sweep.Events())
}

// WritePrometheus writes the merged metrics in Prometheus text format.
func (o *Observation) WritePrometheus(w io.Writer) error {
	if o.Empty() || o.sweep.Registry() == nil {
		return nil
	}
	return o.sweep.Registry().WritePrometheus(w)
}

// WriteMetricsJSON writes the merged metrics as a JSON snapshot.
func (o *Observation) WriteMetricsJSON(w io.Writer) error {
	if o.Empty() || o.sweep.Registry() == nil {
		return nil
	}
	return o.sweep.Registry().WriteJSON(w)
}

// WriteAuditJSONL writes the admission audit log as one JSON decision per
// line, each carrying the candidate-node evaluations and, for rejections,
// the reason.
func (o *Observation) WriteAuditJSONL(w io.Writer) error {
	if o.Empty() {
		return nil
	}
	return obs.WriteAuditJSONL(w, o.sweep.Decisions())
}

// Observe arms observability on the builder: every simulation run by
// subsequent Build calls records the selected layers into the returned
// Observation. Figures are byte-identical with observability on or off —
// recording never alters scheduling decisions — but runs pay the
// recording cost, so leave it off for benchmarking. Calling Observe again
// replaces the previous observation. Extension figures other than "chaos"
// rebuild their own configs and are not observed.
func (b *FigureBuilder) Observe(cfg ObserveConfig) *Observation {
	sw := obs.NewSweep(obs.Options{Trace: cfg.Trace, Metrics: cfg.Metrics, Audit: cfg.Audit})
	b.base.Obs = sw
	return &Observation{sweep: sw}
}

// Build regenerates one figure. The paper figures ("figure1" through
// "figure4") and "chaos" share the builder's single base workload.
func (b *FigureBuilder) Build(id string) (Figure, error) {
	return b.BuildContext(context.Background(), id)
}

// BuildContext is Build under a cancellable context: cancellation stops
// admitting sweep cells, aborts in-flight simulations at event-loop
// granularity, and returns an error wrapping the cancellation cause.
// Cells checkpointed before the cancellation stay in the journal (see
// OpenJournal). Extension figures other than "chaos" manage their own
// workload variations.
func (b *FigureBuilder) BuildContext(ctx context.Context, id string) (Figure, error) {
	var from func(context.Context, experiment.BaseConfig, []workload.Job) (experiment.Figure, error)
	var ext func(context.Context, experiment.BaseConfig) (experiment.Figure, error)
	switch id {
	case "figure1":
		from = experiment.Figure1FromContext
	case "figure2":
		from = experiment.Figure2FromContext
	case "figure3":
		from = experiment.Figure3FromContext
	case "figure4":
		from = experiment.Figure4FromContext
	case "chaos":
		from = experiment.FigureChaosFromContext
	case "prediction":
		ext = experiment.FigurePrediction
	case "allpolicies":
		ext = experiment.FigureAllPolicies
	case "hetero":
		ext = experiment.FigureHetero
	default:
		return Figure{}, fmt.Errorf("clustersched: unknown figure %q (want figure1..figure4, prediction, allpolicies, hetero, or chaos)", id)
	}
	var f experiment.Figure
	var err error
	if ext != nil {
		// A fresh base: extension figures generate their own workload
		// variations and take none of the builder's sweep settings.
		f, err = ext(ctx, buildBase(b.o))
	} else {
		var jobs []workload.Job
		if jobs, err = b.baseJobs(); err != nil {
			return Figure{}, err
		}
		f, err = from(ctx, b.base, jobs)
	}
	if err != nil {
		return Figure{}, err
	}
	return fromInternalFigure(f), nil
}

// WriteWorkloadTable writes the §4 workload-characteristics table from
// the builder's shared base workload.
func (b *FigureBuilder) WriteWorkloadTable(w io.Writer) error {
	tbl, err := b.workloadTable()
	if err != nil {
		return err
	}
	return experiment.WriteWorkloadTable(w, tbl)
}

// WriteWorkloadTableJSON writes the workload-characteristics table as
// JSON from the builder's shared base workload.
func (b *FigureBuilder) WriteWorkloadTableJSON(w io.Writer) error {
	tbl, err := b.workloadTable()
	if err != nil {
		return err
	}
	return experiment.WriteWorkloadTableJSON(w, tbl)
}

func (b *FigureBuilder) workloadTable() (experiment.WorkloadTable, error) {
	jobs, err := b.baseJobs()
	if err != nil {
		return experiment.WorkloadTable{}, err
	}
	return experiment.BuildWorkloadTableFrom(b.base, jobs)
}

// FigureIDs lists the paper's regenerable figures in order. The extension
// experiments ("prediction", "allpolicies", "hetero" — see
// ExtensionFigureIDs) are built on demand and are not part of the paper
// set.
func FigureIDs() []string { return []string{"figure1", "figure2", "figure3", "figure4"} }

// ExtensionFigureIDs lists the extension experiments beyond the paper,
// including the fault-injection chaos experiment.
func ExtensionFigureIDs() []string { return []string{"allpolicies", "hetero", "prediction", "chaos"} }

// Replication is a multi-seed measurement: mean, sample standard
// deviation, and 95 % confidence half-width for the two evaluation
// metrics.
type Replication struct {
	Seeds         int
	FulfilledMean float64
	FulfilledStd  float64
	FulfilledCI95 float64
	SlowdownMean  float64
	SlowdownStd   float64
	SlowdownCI95  float64
}

// Replicate runs the configured simulation across n workload seeds
// (derived deterministically from o.Seed) and returns the metric
// distribution — the statistically sound way to compare policies. Each
// seed runs the same simulation Simulate runs, with its own workload and
// deadline stream.
func Replicate(o Options, n int) (Replication, error) {
	if err := o.Validate(); err != nil {
		return Replication{}, err
	}
	if n <= 0 {
		return Replication{}, fmt.Errorf("clustersched: Replicate with n = %d", n)
	}
	base, spec := plan(o)
	rep, err := experiment.RunReplicated(base, spec, experiment.SeedsFrom(o.Seed, n))
	if err != nil {
		return Replication{}, err
	}
	return Replication{
		Seeds:         rep.Seeds,
		FulfilledMean: rep.FulfilledMean, FulfilledStd: rep.FulfilledStd, FulfilledCI95: rep.FulfilledCI95,
		SlowdownMean: rep.SlowdownMean, SlowdownStd: rep.SlowdownStd, SlowdownCI95: rep.SlowdownCI95,
	}, nil
}

// plan translates valid options into the experiment harness's base
// configuration and the one run they describe, which Simulate, Report,
// ProviderEconomics and Replicate all run.
func plan(o Options) (experiment.BaseConfig, experiment.RunSpec) {
	base := buildBase(o)
	kind, _ := experiment.PolicyKindOf(string(o.Policy)) // Validate admits only known names
	est := o.Estimator
	if est == "user-estimate" {
		est = "" // the scheduler sees the user estimates unwrapped
	}
	return base, experiment.RunSpec{
		Policy:             kind,
		ArrivalDelayFactor: o.ArrivalDelayFactor,
		InaccuracyPct:      o.InaccuracyPct,
		Deadline:           base.Deadline,
		Faults:             o.faultConfig(),
		MonitorInterval:    o.MonitorInterval,
		Estimator:          est,
	}
}

// buildBase translates the options into the experiment harness's base
// configuration, which also describes the facade's own workload.
func buildBase(o Options) experiment.BaseConfig {
	base := experiment.DefaultBase()
	base.Nodes = o.NodeCount()
	base.Rating = o.Rating
	base.Ratings = o.NodeRatings
	base.Cluster.RefRating = o.Rating
	base.Cluster.WorkConserving = o.WorkConserving
	base.Generator.Jobs = o.Jobs
	base.Generator.Seed = o.Seed
	base.Generator.MaxProcs = o.NodeCount()
	if o.UserModel {
		base.Generator.Users = workload.DefaultUserModelConfig()
	}
	base.Deadline.HighUrgencyFraction = o.HighUrgencyFraction
	base.Deadline.Ratio = o.DeadlineRatio
	base.Params = o.policyParams()
	base.CheckInvariants = o.CheckInvariants
	base.MaxEvents = o.MaxEvents
	return base
}

// Figure, Panel and Series mirror the experiment harness output for
// rendering outside this module.
type Figure struct {
	ID     string
	Title  string
	Panels []Panel
}

// Panel is one subplot: a metric against a swept parameter.
type Panel struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Series is one policy's line in a panel.
type Series struct {
	Name string
	Y    []float64
}

func fromInternalFigure(f experiment.Figure) Figure {
	out := Figure{ID: f.ID, Title: f.Title}
	for _, p := range f.Panels {
		np := Panel{Name: p.Name, XLabel: p.XLabel, YLabel: p.YLabel, X: append([]float64(nil), p.X...)}
		for _, s := range p.Series {
			np.Series = append(np.Series, Series{Name: s.Name, Y: append([]float64(nil), s.Y...)})
		}
		out.Panels = append(out.Panels, np)
	}
	return out
}

func toInternalFigure(f Figure) experiment.Figure {
	out := experiment.Figure{ID: f.ID, Title: f.Title}
	for _, p := range f.Panels {
		np := experiment.Panel{Name: p.Name, XLabel: p.XLabel, YLabel: p.YLabel, X: p.X}
		for _, s := range p.Series {
			np.Series = append(np.Series, experiment.Series{Name: s.Name, Y: s.Y})
		}
		out.Panels = append(out.Panels, np)
	}
	return out
}

// RenderFigure writes the figure as aligned tables plus ASCII plots.
func RenderFigure(w io.Writer, f Figure) error {
	return experiment.WriteFigure(w, toInternalFigure(f))
}

// RenderFigureCSV writes the figure as tidy CSV (figure,panel,policy,x,y).
func RenderFigureCSV(w io.Writer, f Figure) error {
	return experiment.WriteFigureCSV(w, toInternalFigure(f))
}

// RenderFigureJSON writes the figure as indented JSON.
func RenderFigureJSON(w io.Writer, f Figure) error {
	return experiment.WriteFigureJSON(w, toInternalFigure(f))
}

// RenderFigureSVG writes the figure as a standalone SVG document with one
// line chart per panel, in the paper's 2×2 layout.
func RenderFigureSVG(w io.Writer, f Figure) error {
	return experiment.WriteFigureSVG(w, toInternalFigure(f))
}

// RenderWorkloadTable writes the §4 workload-characteristics table for the
// options' synthetic trace, next to the paper's reference values.
func RenderWorkloadTable(w io.Writer, o Options) error {
	b, err := NewFigureBuilder(o)
	if err != nil {
		return err
	}
	return b.WriteWorkloadTable(w)
}
