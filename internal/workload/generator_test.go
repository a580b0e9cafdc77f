package workload

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"clustersched/internal/sim"
)

func genDefault(t *testing.T) []Job {
	t.Helper()
	jobs, err := Generate(DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestGenerateCountAndOrder(t *testing.T) {
	jobs := genDefault(t)
	if len(jobs) != TraceJobs {
		t.Fatalf("len = %d, want %d", len(jobs), TraceJobs)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			t.Fatal("jobs not sorted by submit time")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genDefault(t)
	b := genDefault(t)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across identical runs", i)
		}
	}
	cfg := DefaultGeneratorConfig()
	cfg.Seed = 99
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Runtime == c[i].Runtime {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds produced %d/%d identical runtimes", same, len(a))
	}
}

func TestGenerateMatchesPaperStatistics(t *testing.T) {
	jobs := genDefault(t)
	var inter, run, procs sim.Welford
	for i, j := range jobs {
		if i > 0 {
			inter.Add(j.Submit - jobs[i-1].Submit)
		}
		run.Add(j.Runtime)
		procs.Add(float64(j.NumProc))
	}
	if m := inter.Mean(); math.Abs(m-TraceMeanInterarrival)/TraceMeanInterarrival > 0.10 {
		t.Errorf("mean interarrival = %.0f s, want within 10%% of %.0f", m, TraceMeanInterarrival)
	}
	if m := run.Mean(); math.Abs(m-TraceMeanRuntime)/TraceMeanRuntime > 0.15 {
		t.Errorf("mean runtime = %.0f s, want within 15%% of %.0f", m, TraceMeanRuntime)
	}
	if m := procs.Mean(); math.Abs(m-TraceMeanProcs)/TraceMeanProcs > 0.20 {
		t.Errorf("mean procs = %.1f, want within 20%% of %.0f", m, TraceMeanProcs)
	}
}

func TestGenerateBounds(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	jobs := genDefault(t)
	for _, j := range jobs {
		if j.Runtime < cfg.MinRuntime || j.Runtime > cfg.MaxRuntime {
			t.Fatalf("runtime %g outside [%g, %g]", j.Runtime, cfg.MinRuntime, cfg.MaxRuntime)
		}
		if j.NumProc < 1 || j.NumProc > cfg.MaxProcs {
			t.Fatalf("numproc %d outside [1, %d]", j.NumProc, cfg.MaxProcs)
		}
		if j.TraceEstimate <= 0 {
			t.Fatalf("estimate %g not positive", j.TraceEstimate)
		}
	}
}

func TestGenerateEstimateMixture(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Jobs = 10000
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var exact, under, over int
	var overFactor sim.Welford
	for _, j := range jobs {
		switch {
		case j.TraceEstimate == j.Runtime:
			exact++
		case j.TraceEstimate < j.Runtime:
			under++
		default:
			over++
			overFactor.Add(j.TraceEstimate / j.Runtime)
		}
	}
	n := float64(len(jobs))
	if f := float64(exact) / n; math.Abs(f-cfg.Estimates.ExactFraction) > 0.03 {
		t.Errorf("exact fraction = %.3f, want ~%.2f", f, cfg.Estimates.ExactFraction)
	}
	if f := float64(under) / n; math.Abs(f-cfg.Estimates.UnderFraction) > 0.03 {
		t.Errorf("under fraction = %.3f, want ~%.2f", f, cfg.Estimates.UnderFraction)
	}
	// Overestimates dominate and are severe — the paper's "often over
	// estimated" observation.
	if float64(over)/n < 0.6 {
		t.Errorf("over fraction = %.3f, want > 0.6", float64(over)/n)
	}
	if m := overFactor.Mean(); m < 2 || m > 8 {
		t.Errorf("mean over-factor = %.2f, want in [2, 8]", m)
	}
}

func TestGenerateUnderestimatesAreStrict(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Jobs = 5000
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.TraceEstimate < j.Runtime && j.TraceEstimate/j.Runtime < cfg.Estimates.UnderLo-1e-9 {
			t.Fatalf("underestimate factor %g below configured floor", j.TraceEstimate/j.Runtime)
		}
	}
}

func TestGenerateValidateRejectsBadConfig(t *testing.T) {
	cases := []func(*GeneratorConfig){
		func(c *GeneratorConfig) { c.Jobs = 0 },
		func(c *GeneratorConfig) { c.MeanInterarrival = 0 },
		func(c *GeneratorConfig) { c.MeanRuntime = -1 },
		func(c *GeneratorConfig) { c.MinRuntime = 100; c.MaxRuntime = 50 },
		func(c *GeneratorConfig) { c.MaxProcs = 0 },
		func(c *GeneratorConfig) { c.NonPowerFraction = 2 },
		func(c *GeneratorConfig) { c.Estimates.OverFactorMean = 0.5 },
		func(c *GeneratorConfig) { c.Estimates.ExactFraction = 0.9; c.Estimates.UnderFraction = 0.5 },
	}
	for i, mut := range cases {
		cfg := DefaultGeneratorConfig()
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// TestGenerateValidateRejectsNonFiniteCV: a NaN or infinite CV has no
// distribution to draw from. A NaN InterarrivalCV used to fail the
// exponential test and walk the shape bisection to its bracket end, so
// every gap came from a Weibull of shape ≈ 0.1; a NaN RuntimeCV made NaN
// runtimes.
func TestGenerateValidateRejectsNonFiniteCV(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, mut := range map[string]func(*GeneratorConfig){
			"InterarrivalCV": func(c *GeneratorConfig) { c.InterarrivalCV = v },
			"RuntimeCV":      func(c *GeneratorConfig) { c.RuntimeCV = v },
		} {
			cfg := DefaultGeneratorConfig()
			cfg.Jobs = 10
			mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %g accepted by Validate", name, v)
			}
			if _, err := Generate(cfg); err == nil {
				t.Errorf("%s = %g accepted by Generate", name, v)
			}
		}
	}
}

func TestGenerateSingleNodeCluster(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Jobs = 100
	cfg.MaxProcs = 1
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.NumProc != 1 {
			t.Fatalf("numproc = %d on single-node cluster", j.NumProc)
		}
	}
}

func TestWeibullShapeForCV(t *testing.T) {
	// 1.05 and 4.0 are near the ends CalibrateFromTrace clamps to.
	for _, cv := range []float64{1.05, 1.2, 1.8, 2.5, 4.0} {
		k := weibullShapeForCV(cv)
		g1 := math.Gamma(1 + 1/k)
		g2 := math.Gamma(1 + 2/k)
		got := math.Sqrt(g2/(g1*g1) - 1)
		if math.Abs(got-cv) > 0.01 {
			t.Errorf("shape for cv=%g gives cv=%g", cv, got)
		}
	}
}

func TestGenerateInterarrivalCVLowFallsBackToExp(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Jobs = 2000
	cfg.InterarrivalCV = 1.0
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inter sim.Welford
	for i := 1; i < len(jobs); i++ {
		inter.Add(jobs[i].Submit - jobs[i-1].Submit)
	}
	cv := inter.StdDev() / inter.Mean()
	if math.Abs(cv-1) > 0.15 {
		t.Fatalf("exponential interarrival CV = %.2f, want ~1", cv)
	}
}

func TestGenerateOfferedLoadIsHeavy(t *testing.T) {
	// The paper chose SDSC SP2 because its utilization is the highest of
	// the archive (83.2%); the synthetic workload must offer comparable
	// load so admission control actually matters.
	jobs := genDefault(t)
	u := Utilization(jobs, SDSCSP2Nodes)
	if u < 0.5 || u > 1.3 {
		t.Fatalf("offered utilization = %.2f, want heavy (0.5..1.3)", u)
	}
}

// TestGenerateMatchesPerJobReference holds Generate, which solves its
// distributions once per call, to referenceGenerate, which solves them
// for every job: the streams must be equal bit for bit on both
// inter-arrival paths, a constant and two lognormal runtime models, and
// with the user population on and off.
func TestGenerateMatchesPerJobReference(t *testing.T) {
	for _, iacv := range []float64{0.5, 1.0, 1.05, 1.8, 4.0} {
		for _, rcv := range []float64{0, 0.5, 2.2} {
			for _, users := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := DefaultGeneratorConfig()
					cfg.Jobs = 400
					cfg.Seed = seed
					cfg.InterarrivalCV = iacv
					cfg.RuntimeCV = rcv
					if users {
						cfg.Users = DefaultUserModelConfig()
					}
					name := fmt.Sprintf("iacv=%g/rcv=%g/users=%v/seed=%d", iacv, rcv, users, seed)
					got, err := Generate(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := referenceGenerate(cfg)
					for i := range want {
						if !sameJob(got[i], want[i]) {
							t.Fatalf("%s: job %d = %+v, reference %+v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// sameJob compares every field bit for bit.
func sameJob(a, b Job) bool {
	bits := math.Float64bits
	return bits(a.Submit) == bits(b.Submit) && bits(a.Runtime) == bits(b.Runtime) &&
		bits(a.TraceEstimate) == bits(b.TraceEstimate) && bits(a.Deadline) == bits(b.Deadline) &&
		a.ID == b.ID && a.NumProc == b.NumProc && a.Class == b.Class && a.UserID == b.UserID
}

// referenceGenerate is Generate as it was before its distributions were
// solved once per call: the inter-arrival shape bisection and both
// lognormals' µ and σ are recomputed for every job. It is the oracle of
// TestGenerateMatchesPerJobReference; cfg must be valid.
func referenceGenerate(cfg GeneratorConfig) []Job {
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
	maxPow := 0
	for (1 << (maxPow + 1)) <= cfg.MaxProcs {
		maxPow++
	}
	if len(weights) > maxPow+1 {
		weights = weights[:maxPow+1]
	}

	jobs := make([]Job, cfg.Jobs)
	t := 0.0
	for i := range jobs {
		if i > 0 {
			t += referenceInterarrival(arrivalRNG, cfg)
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
			runtime := clamp(runtimeRNG.LognormalMeanCV(cfg.MeanRuntime, cfg.RuntimeCV), cfg.MinRuntime, cfg.MaxRuntime)
			jobs[i].Runtime = runtime
			jobs[i].TraceEstimate = referenceSampleEstimate(estRNG, runtime, cfg.Estimates, cfg.MaxRuntime)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
	return jobs
}

func referenceInterarrival(r *sim.RNG, cfg GeneratorConfig) float64 {
	if cfg.InterarrivalCV <= 1 {
		return r.Exp(cfg.MeanInterarrival)
	}
	k := weibullShapeForCV(cfg.InterarrivalCV)
	scale := cfg.MeanInterarrival / math.Gamma(1+1/k)
	return r.Weibull(scale, k)
}

func referenceSampleEstimate(r *sim.RNG, runtime float64, c EstimateConfig, maxRuntime float64) float64 {
	u := r.Float64()
	switch {
	case u < c.ExactFraction:
		return runtime
	case u < c.ExactFraction+c.UnderFraction:
		f := c.UnderLo + r.Float64()*(c.UnderHi-c.UnderLo)
		return math.Max(1, runtime*f)
	default:
		f := clamp(r.LognormalMeanCV(c.OverFactorMean, c.OverFactorCV), c.OverMin, c.OverMax)
		est := runtime * f
		if c.RoundTo > 0 {
			est = math.Ceil(est/c.RoundTo) * c.RoundTo
		}
		return math.Min(est, maxRuntime*2)
	}
}
