package workload

import (
	"fmt"
	"math"
	"sort"

	"clustersched/internal/sim"
)

// GeneratorConfig parameterizes the synthetic SDSC-SP2-like trace. The
// defaults reproduce the statistics the paper reports for its 3000-job
// subset: mean inter-arrival 2131 s, mean runtime 2.7 h, mean 17
// processors on a 128-node machine, with user estimates that are highly
// inaccurate and mostly — but not exclusively — overestimated.
type GeneratorConfig struct {
	Jobs int
	Seed uint64

	MeanInterarrival float64
	// InterarrivalCV shapes burstiness; supercomputer arrivals are
	// burstier than Poisson, so the default uses a hyperexponential-like
	// Weibull with CV > 1.
	InterarrivalCV float64

	MeanRuntime float64
	RuntimeCV   float64
	MinRuntime  float64
	MaxRuntime  float64

	MaxProcs int
	// ProcWeights gives the probability weight of each power-of-two
	// processor request 1,2,4,...,MaxProcs. Empty selects calibrated
	// defaults with mean ≈ 17.
	ProcWeights []float64
	// NonPowerFraction is the chance a job requests a non-power-of-two
	// count (real traces contain a minority of such requests).
	NonPowerFraction float64

	Estimates EstimateConfig

	// Users, when Count > 0, replaces the job-level estimate mixture with
	// a user population whose estimation styles persist across their jobs
	// (required for history-based runtime prediction experiments). The
	// default leaves it disabled, preserving the paper-calibrated
	// job-level mixture.
	Users UserModelConfig
}

// DefaultGeneratorConfig returns the calibrated SDSC SP2 subset model.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Jobs:             TraceJobs,
		Seed:             1,
		MeanInterarrival: TraceMeanInterarrival,
		InterarrivalCV:   1.8,
		MeanRuntime:      TraceMeanRuntime,
		RuntimeCV:        2.2,
		MinRuntime:       30,
		MaxRuntime:       36 * 3600,
		MaxProcs:         SDSCSP2Nodes,
		NonPowerFraction: 0.12,
		Estimates:        DefaultEstimateConfig(),
	}
}

// defaultProcWeights are the probabilities of requesting 1,2,4,...,128
// processors, calibrated so the mean request is ≈ 17 with a serial-job
// spike, matching published SDSC SP2 characterizations.
var defaultProcWeights = []float64{0.25, 0.10, 0.12, 0.15, 0.15, 0.12, 0.08, 0.03}

// Validate reports the first configuration error.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.Jobs <= 0:
		return fmt.Errorf("workload: Jobs = %d, want > 0", c.Jobs)
	case c.MeanInterarrival <= 0:
		return fmt.Errorf("workload: MeanInterarrival = %g, want > 0", c.MeanInterarrival)
	case c.MeanRuntime <= 0:
		return fmt.Errorf("workload: MeanRuntime = %g, want > 0", c.MeanRuntime)
	case c.MinRuntime <= 0 || c.MaxRuntime < c.MinRuntime:
		return fmt.Errorf("workload: runtime bounds [%g, %g] invalid", c.MinRuntime, c.MaxRuntime)
	case c.MaxProcs <= 0:
		return fmt.Errorf("workload: MaxProcs = %d, want > 0", c.MaxProcs)
	case c.NonPowerFraction < 0 || c.NonPowerFraction > 1:
		return fmt.Errorf("workload: NonPowerFraction = %g, want in [0,1]", c.NonPowerFraction)
	case !finite(c.InterarrivalCV):
		return fmt.Errorf("workload: InterarrivalCV = %g, want finite", c.InterarrivalCV)
	case !finite(c.RuntimeCV):
		return fmt.Errorf("workload: RuntimeCV = %g, want finite", c.RuntimeCV)
	}
	if err := c.Users.Validate(); err != nil {
		return err
	}
	return c.Estimates.Validate()
}

// Generate produces the synthetic job stream (without deadlines; apply
// AssignDeadlines afterwards). The result is sorted by submit time and
// deterministic for a given config.
func Generate(cfg GeneratorConfig) ([]Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	arrivalRNG := root.Stream(1)
	runtimeRNG := root.Stream(2)
	procRNG := root.Stream(3)
	estRNG := root.Stream(4)

	var userWeights, userScales []float64
	var userStyles []userStyle
	var userRNG *sim.RNG
	if cfg.Users.Count > 0 {
		userRNG = root.Stream(5)
		userWeights, userStyles, userScales = buildUserPopulation(root.Stream(6), cfg.Users, cfg.Estimates, cfg.MeanRuntime)
	}

	weights := cfg.ProcWeights
	if len(weights) == 0 {
		weights = defaultProcWeights
	}
	// Trim the power-of-two menu to MaxProcs.
	maxPow := 0
	for (1 << (maxPow + 1)) <= cfg.MaxProcs {
		maxPow++
	}
	if len(weights) > maxPow+1 {
		weights = weights[:maxPow+1]
	}

	// The distributions do not change during a call: solve their
	// parameters once, not per job.
	arrivals := newArrivalDist(cfg)
	runtimes := newLognormal(cfg.MeanRuntime, cfg.RuntimeCV)
	overFactors := newLognormal(cfg.Estimates.OverFactorMean, cfg.Estimates.OverFactorCV)

	jobs := make([]Job, cfg.Jobs)
	t := 0.0
	for i := range jobs {
		if i > 0 {
			t += arrivals.sample(arrivalRNG)
		}
		procs := sampleProcs(procRNG, weights, cfg)
		jobs[i] = Job{
			ID:      i + 1,
			Submit:  t,
			NumProc: procs,
		}
		if cfg.Users.Count > 0 {
			user := userRNG.Choice(userWeights)
			runtime := clamp(sampleUserRuntime(runtimeRNG, userScales[user], cfg.Users), cfg.MinRuntime, cfg.MaxRuntime)
			jobs[i].UserID = user + 1
			jobs[i].Runtime = runtime
			jobs[i].TraceEstimate = sampleUserEstimate(estRNG, runtime, userStyles[user], cfg.Users, cfg.Estimates, cfg.MaxRuntime)
		} else {
			runtime := clamp(runtimes.sample(runtimeRNG), cfg.MinRuntime, cfg.MaxRuntime)
			jobs[i].Runtime = runtime
			jobs[i].TraceEstimate = sampleEstimate(estRNG, runtime, cfg.Estimates, overFactors, cfg.MaxRuntime)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
	return jobs, nil
}

// arrivalDist is the inter-arrival distribution with its parameters
// solved once: exponential when InterarrivalCV <= 1, else a Weibull.
type arrivalDist struct {
	weibull      bool
	mean         float64 // exponential mean
	scale, shape float64 // Weibull parameters
}

func newArrivalDist(cfg GeneratorConfig) arrivalDist {
	if cfg.InterarrivalCV <= 1 {
		return arrivalDist{mean: cfg.MeanInterarrival}
	}
	// Weibull with shape < 1 gives CV > 1 (bursty). Solve shape from CV
	// approximately: CV² = Γ(1+2/k)/Γ(1+1/k)² − 1. A two-term fit is
	// sufficient for workload modelling.
	k := weibullShapeForCV(cfg.InterarrivalCV)
	scale := cfg.MeanInterarrival / math.Gamma(1+1/k)
	return arrivalDist{weibull: true, scale: scale, shape: k}
}

func (d arrivalDist) sample(r *sim.RNG) float64 {
	if !d.weibull {
		return r.Exp(d.mean)
	}
	return r.Weibull(d.scale, d.shape)
}

// lognormal is sim.RNG.LognormalMeanCV(mean, cv) with µ and σ solved once:
// sample draws the same variates, and none where LognormalMeanCV returns
// a constant (mean <= 0 gives 0, cv <= 0 gives mean).
type lognormal struct {
	draw      bool
	constant  float64
	mu, sigma float64
}

func newLognormal(mean, cv float64) lognormal {
	if mean <= 0 {
		return lognormal{}
	}
	if cv <= 0 {
		return lognormal{constant: mean}
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return lognormal{draw: true, mu: mu, sigma: math.Sqrt(sigma2)}
}

func (d lognormal) sample(r *sim.RNG) float64 {
	if !d.draw {
		return d.constant
	}
	return r.Lognormal(d.mu, d.sigma)
}

// weibullShapeForCV inverts the Weibull CV relation by bisection.
func weibullShapeForCV(cv float64) float64 {
	lo, hi := 0.1, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		g1 := math.Gamma(1 + 1/mid)
		g2 := math.Gamma(1 + 2/mid)
		c := math.Sqrt(g2/(g1*g1) - 1)
		if c > cv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func sampleProcs(r *sim.RNG, weights []float64, cfg GeneratorConfig) int {
	if cfg.MaxProcs == 1 {
		return 1
	}
	p := 1 << r.Choice(weights)
	if p > 1 && r.Bool(cfg.NonPowerFraction) {
		// Perturb off the power of two, staying within [1, MaxProcs].
		span := p / 2
		p += r.Intn(2*span+1) - span
	}
	if p < 1 {
		p = 1
	}
	if p > cfg.MaxProcs {
		p = cfg.MaxProcs
	}
	return p
}

func clamp(x, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, x)) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
