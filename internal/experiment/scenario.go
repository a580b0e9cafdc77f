// Package experiment defines and executes the paper's evaluation: four
// figures of parameter sweeps comparing EDF, Libra and LibraRisk on a
// synthetic SDSC SP2 workload, with both accurate and trace runtime
// estimates. Sweeps run in parallel across independent simulations.
package experiment

import (
	"context"
	"fmt"

	"clustersched/internal/checkpoint"
	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/fault"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// PolicyKind names an admission-control strategy under test.
type PolicyKind int

const (
	EDF PolicyKind = iota
	Libra
	LibraRisk
	// Extension comparators (related work from the paper's §2).
	FCFS
	BackfillEASY
	BackfillCons
	QoPS
)

// AllPolicies is the paper's comparison set, in presentation order.
var AllPolicies = []PolicyKind{EDF, Libra, LibraRisk}

// ExtensionPolicies are the related-work comparators available beyond the
// paper's three.
var ExtensionPolicies = []PolicyKind{FCFS, BackfillEASY, BackfillCons, QoPS}

func (k PolicyKind) String() string {
	switch k {
	case EDF:
		return "EDF"
	case Libra:
		return "Libra"
	case LibraRisk:
		return "LibraRisk"
	case FCFS:
		return "FCFS"
	case BackfillEASY:
		return "EASY"
	case BackfillCons:
		return "Conservative"
	case QoPS:
		return "QoPS"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// BaseConfig fixes everything a sweep does not vary.
type BaseConfig struct {
	Nodes  int
	Rating float64
	// Ratings, when non-empty, overrides Nodes/Rating with per-node SPEC
	// ratings (heterogeneous cluster); Cluster.RefRating stays the unit
	// runtimes are expressed in.
	Ratings   []float64
	Cluster   cluster.Config
	Generator workload.GeneratorConfig
	Deadline  workload.DeadlineConfig
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS.
	Workers int
	// Params tunes the policy every cell builds (node selection, σ
	// threshold, QoPS slack); see sched.NewPolicy.
	Params sched.PolicyParams
	// disableFastPaths turns off the admission fast paths in the Libra and
	// LibraRisk policies. The differential tests run both configurations
	// at paper scale and assert identical summaries; it cannot affect
	// results and is excluded from checkpoint cell keys.
	disableFastPaths bool
	// CheckInvariants installs a sim.InvariantChecker on every run: clock
	// monotonicity, job conservation, and cluster structural invariants
	// are re-validated after each event, and any violation fails the run.
	CheckInvariants bool
	// disableReuse makes every sweep cell build its engine, recorder,
	// cluster and policy from scratch instead of reusing the per-worker run
	// context. Results are identical by contract — the differential tests
	// run paper-scale sweeps both ways and assert byte-identical summaries
	// — so the flag exists for those tests. Like the supervision knobs it
	// cannot affect results and is excluded from checkpoint cell keys.
	disableReuse bool

	// Obs, when set, collects tracing, metrics and/or an admission audit
	// log across the sweep's runs (see internal/obs). Like the supervision
	// knobs it cannot affect simulation results — the differential test
	// asserts byte-identical figures with it on and off — and is excluded
	// from checkpoint cell keys. Note that cells satisfied from the resume
	// journal are not re-run and therefore contribute no observations.
	Obs *obs.Sweep

	// Supervision knobs. None of these affect simulation results — they
	// are excluded from checkpoint cell keys — only how a sweep reports
	// and checkpoints its cells.

	// Progress, when set, is called after every finished cell (run,
	// journal hit, or failure) with the sweep-level completion count.
	// Calls are serialized; the callback must not block for long, as it
	// is on the worker pool's completion path.
	Progress func(ProgressEvent)
	// Journal, when set, checkpoints every successfully completed cell
	// and satisfies cells whose content key is already journaled without
	// re-running them — the resume path after an interrupted sweep.
	Journal *checkpoint.Journal
}

// ProgressEvent reports one finished sweep cell to BaseConfig.Progress.
type ProgressEvent struct {
	Done  int // finished cells so far, including this one
	Total int // cells in the sweep
	Spec  RunSpec
	// FromJournal marks a cell satisfied from the checkpoint journal
	// instead of being run.
	FromJournal bool
	// Err is the cell's failure, if any (typically a *RunError).
	Err error
}

// nodeRatings returns the effective per-node ratings.
func (b BaseConfig) nodeRatings() []float64 {
	if len(b.Ratings) > 0 {
		return b.Ratings
	}
	out := make([]float64, b.Nodes)
	for i := range out {
		out[i] = b.Rating
	}
	return out
}

// DefaultBase returns the paper's setup: 128 nodes of rating 168, the
// calibrated 3000-job SDSC SP2-like workload, default deadline model.
func DefaultBase() BaseConfig {
	return BaseConfig{
		Nodes:     workload.SDSCSP2Nodes,
		Rating:    workload.SDSCSP2Rating,
		Cluster:   cluster.DefaultConfig(),
		Generator: workload.DefaultGeneratorConfig(),
		Deadline:  workload.DefaultDeadlineConfig(),
		Params:    sched.PolicyParams{QoPSSlack: 2},
	}
}

// RunSpec is one simulation: a policy, a workload variation, and an
// estimate inaccuracy level.
type RunSpec struct {
	Policy             PolicyKind
	ArrivalDelayFactor float64
	InaccuracyPct      float64
	Deadline           workload.DeadlineConfig
	// Faults configures the deterministic failure processes injected into
	// the run; the zero value injects nothing and provably changes
	// nothing. Only the EDF, Libra and LibraRisk policies have recovery
	// semantics; enabling faults with any other policy is an error.
	Faults fault.Config
	// Label names the study the spec belongs to (e.g. "figure3") so a
	// failed cell is identifiable from a one-line error; informational.
	Label string
	// Seed is the workload seed the cell runs under, recorded so a
	// failure in a multi-seed sweep names its seed; informational (the
	// jobs passed to Run/Sweep already embody it).
	Seed uint64
	// MonitorInterval and Estimator are omitted from the cell key when
	// zero, so a journal written before they existed still matches.

	// MonitorInterval, when positive, samples cluster risk at this period
	// of simulated time and reports the mean σ in Result.MeanSigma;
	// time-shared policies only.
	MonitorInterval float64 `json:",omitempty"`
	// Estimator, when set, names the internal/predict predictor that
	// corrects the scheduler's runtime estimates online ("user-estimate",
	// "recent-average" or "scaling"). History-based predictors need a
	// workload with user IDs (Generator.Users).
	Estimator string `json:",omitempty"`
}

// Ident renders the spec's one-line identity for error and progress
// messages: label, policy, swept parameters, and seed when known.
func (s RunSpec) Ident() string {
	id := fmt.Sprintf("%s adf=%g inacc=%g urg=%g ratio=%g",
		s.Policy, s.ArrivalDelayFactor, s.InaccuracyPct,
		s.Deadline.HighUrgencyFraction, s.Deadline.Ratio)
	if s.Label != "" {
		id = s.Label + " " + id
	}
	if s.Seed != 0 {
		id += fmt.Sprintf(" seed=%d", s.Seed)
	}
	return id
}

// Run executes one simulation from pre-generated base jobs (before
// deadline assignment and arrival scaling) and returns its summary. It
// always builds the run from scratch; sweeps route through runInstrumented
// with a per-worker scratch instead (see reuse.go).
func Run(base BaseConfig, baseJobs []workload.Job, spec RunSpec) (metrics.Summary, error) {
	s, _, err := runInstrumented(context.Background(), base, baseJobs, spec, nil, -1)
	return s, err
}

// installFaults validates fault support for the policy, defaults the
// horizon to the last (scaled) job arrival, and arms the injector. tr,
// when non-nil, receives a KindFault event per injected failure.
func installFaults(e *sim.Engine, cfg fault.Config, kind PolicyKind, ts *cluster.TimeShared, ss *cluster.SpaceShared, jobs []workload.Job, tr obs.Tracer) error {
	switch kind {
	case EDF, Libra, LibraRisk:
	default:
		return fmt.Errorf("experiment: policy %v has no failure-recovery semantics; faults require EDF, Libra or LibraRisk", kind)
	}
	if cfg.Horizon == 0 {
		for _, j := range jobs {
			if j.Submit > cfg.Horizon {
				cfg.Horizon = j.Submit
			}
		}
	}
	inj, err := fault.New(cfg, fault.ClusterOf(ts, ss))
	if err != nil {
		return err
	}
	if inj != nil {
		inj.Trace = tr
		inj.Install(e)
	}
	return nil
}

// policyNames maps each kind to its sched.NewPolicy name.
var policyNames = [...]string{
	EDF:          "edf",
	Libra:        "libra",
	LibraRisk:    "librarisk",
	FCFS:         "fcfs",
	BackfillEASY: "backfill-easy",
	BackfillCons: "backfill-conservative",
	QoPS:         "qops",
}

// PolicyKindOf returns the kind whose sched.NewPolicy name is name.
func PolicyKindOf(name string) (PolicyKind, bool) {
	for k, n := range policyNames {
		if n == name {
			return PolicyKind(k), true
		}
	}
	return 0, false
}

// buildPolicyClusters constructs the policy and its execution substrate
// (exactly one of the returned clusters is non-nil on success) so callers
// can wire monitors, fault injectors and invariant checkers.
func buildPolicyClusters(base BaseConfig, kind PolicyKind, rec *metrics.Recorder) (core.Policy, *cluster.TimeShared, *cluster.SpaceShared, error) {
	if kind < 0 || int(kind) >= len(policyNames) {
		return nil, nil, nil, fmt.Errorf("experiment: unknown policy %v", kind)
	}
	pol, ts, ss, err := sched.NewPolicy(policyNames[kind], base.Params, base.nodeRatings(), base.Cluster, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	if base.disableFastPaths {
		switch p := pol.(type) {
		case *core.Libra:
			p.DisableFastPath = true
		case *core.LibraRisk:
			p.DisableFastPath = true
		}
	}
	return pol, ts, ss, nil
}

// GenerateBase produces the shared base workload for a sweep.
func GenerateBase(base BaseConfig) ([]workload.Job, error) {
	return workload.Generate(base.Generator)
}
