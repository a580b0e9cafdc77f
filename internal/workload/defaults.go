package workload

// Calibration targets and experiment defaults. The OCR of the paper blanks
// most numerals; each constant below records where its value comes from:
// "paper" = legible in the text, "derived" = forced by surviving arithmetic
// (for example the §3.2 worked example), "companion" = taken from the
// authors' companion papers on Libra/LibraSLA which share the methodology.
const (
	// SDSCSP2Nodes is the machine size of the IBM SP2 at the San Diego
	// Supercomputer Center (Parallel Workloads Archive). [companion]
	SDSCSP2Nodes = 128
	// SDSCSP2Rating is the per-node SPEC rating GridSim uses for the SP2.
	// [companion]
	SDSCSP2Rating = 168.0

	// TraceJobs is the size of the trace subset: the last 3000 jobs,
	// about 2.5 months of the original trace (3000 × 2131 s ≈ 74 days,
	// matching the paper's "about 2.5 months"). [derived]
	TraceJobs = 3000
	// TraceMeanInterarrival is the subset's average inter-arrival time in
	// seconds (35.52 minutes). [paper]
	TraceMeanInterarrival = 2131.0
	// TraceMeanRuntime is the subset's average runtime: 2.7 hours. [paper]
	TraceMeanRuntime = 2.7 * 3600
	// TraceMeanProcs is the subset's average processor requirement. [paper]
	TraceMeanProcs = 17.0

	// DefaultHighUrgencyFraction: by default 20 % of jobs are high
	// urgency. [companion]
	DefaultHighUrgencyFraction = 0.20
	// MeanLowDeadlineFactor is the mean of the low deadline_i/runtime_i
	// factor, i.e. the deadline tightness of the *high urgency* class.
	// [companion: 2]
	MeanLowDeadlineFactor = 2.0
	// DefaultDeadlineRatio is the default deadline high:low ratio: the
	// low-urgency class mean factor is this multiple of
	// MeanLowDeadlineFactor. [companion: 4]
	DefaultDeadlineRatio = 4.0
	// DeadlineFactorCVDivisor: within each class, factors are normally
	// distributed with stddev = mean / this divisor, truncated so a
	// deadline always exceeds the runtime. [paper: "values are normally
	// distributed within each high and low deadline_i/runtime_i"]
	DeadlineFactorCVDivisor = 4.0
	// MinDeadlineFactor keeps every deadline strictly above the runtime,
	// as the paper requires ("always assigned a higher factored value").
	MinDeadlineFactor = 1.05

	// DefaultArrivalDelayFactor leaves the trace arrival process
	// unchanged. [paper]
	DefaultArrivalDelayFactor = 1.0
)
