// Command clustersim runs a single cluster admission-control simulation
// and prints its summary, optionally with a per-job outcome CSV, a
// monitor time series, or a detailed analysis report.
//
// Examples:
//
//	clustersim -policy librarisk -inaccuracy 100
//	clustersim -policy edf -adf 0.3 -urgency 0.8 -jobs-csv out.csv
//	clustersim -policy librarisk -fault-mtbf 86400 -fault-mttr 3600 -check-invariants
//	clustersim -policy libra -trace SDSC-SP2-1998-4.2-cln.swf -last 3000
//	clustersim -report -users
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"clustersched"
	"clustersched/internal/cli"
)

func main() {
	cli.Main("clustersim", run)
}

// run parses args and executes one simulation, writing results to stdout.
// Canceling ctx (SIGINT/SIGTERM via cli.Main) aborts the simulation at
// event-loop granularity.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	o := clustersched.DefaultOptions()
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	policy := fs.String("policy", string(o.Policy), "admission control: edf | libra | librarisk | fcfs | backfill-easy | backfill-conservative | backfill-edf | qops")
	nodes := fs.Int("nodes", o.Nodes, "computation nodes")
	rating := fs.Float64("rating", o.Rating, "SPEC rating per node")
	jobs := fs.Int("jobs", o.Jobs, "synthetic workload size")
	seed := fs.Uint64("seed", o.Seed, "workload seed")
	adf := fs.Float64("adf", o.ArrivalDelayFactor, "arrival delay factor (<1 = heavier load)")
	urgency := fs.Float64("urgency", o.HighUrgencyFraction, "fraction of high urgency jobs")
	ratio := fs.Float64("ratio", o.DeadlineRatio, "deadline high:low ratio")
	inacc := fs.Float64("inaccuracy", o.InaccuracyPct, "estimate inaccuracy % (0=accurate, 100=trace)")
	sigma := fs.Float64("sigma", 0, "LibraRisk σ threshold (0 = paper's zero-risk rule)")
	selection := fs.String("selection", "", "node selection override: best-fit | first-fit | worst-fit")
	estimator := fs.String("estimator", "", "runtime estimate source: user-estimate | recent-average | scaling")
	users := fs.Bool("users", false, "generate the workload with a persistent-user population")
	qopsSlack := fs.Float64("qops-slack", 2, "QoPS slack factor (with -policy qops)")
	strict := fs.Bool("strict-share", false, "serve jobs at exactly their guaranteed share (no work conservation)")
	trace := fs.String("trace", "", "replay an SWF trace file instead of the synthetic workload")
	lastN := fs.Int("last", 0, "with -trace: keep only the last N jobs (0 = all)")
	jobsCSV := fs.String("jobs-csv", "", "write per-job outcomes to this CSV file")
	monitor := fs.Float64("monitor", 0, "sample cluster state every N simulated seconds (time-shared policies)")
	monitorCSV := fs.String("monitor-csv", "", "write monitor samples to this CSV file")
	report := fs.Bool("report", false, "print a detailed analysis report (distributions, class breakdown, rejection reasons)")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for the fault-injection RNG streams")
	faultMTBF := fs.Float64("fault-mtbf", 0, "mean time between per-node failures in simulated seconds (0 = no crashes)")
	faultMTTR := fs.Float64("fault-mttr", 3600, "mean per-node repair time in simulated seconds")
	faultStragglerMTBF := fs.Float64("fault-straggler-mtbf", 0, "mean time between per-node slowdown episodes (0 = none)")
	faultStragglerDur := fs.Float64("fault-straggler-duration", 600, "mean slowdown episode length in simulated seconds")
	faultStragglerFactor := fs.Float64("fault-straggler-factor", 0.5, "node speed multiplier during a slowdown episode, in (0,1]")
	faultCorrMTBF := fs.Float64("fault-correlated-mtbf", 0, "mean time between correlated multi-node outages (0 = none)")
	faultCorrSize := fs.Int("fault-correlated-size", 2, "nodes taken down per correlated outage")
	faultHorizon := fs.Float64("fault-horizon", 0, "stop injecting faults after this simulated time (0 = last job arrival)")
	checkInv := fs.Bool("check-invariants", false, "re-validate model invariants after every event (slower; fails on first violation)")
	maxEvents := fs.Uint64("max-events", 0, "override the engine's runaway-loop event budget (0 = default 50M)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A flag set explicitly is refused where the run would drop it
	// without a word: one that shapes a fault class that is off, an
	// output of a run mode not taken, anything -report's run ignores, and
	// -monitor under a policy on the space-shared cluster, which the
	// utilization monitor cannot sample.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, dep := range []struct {
		flag, when string
		used       bool
	}{
		{"fault-mttr", "without a positive -fault-mtbf or -fault-correlated-mtbf", *faultMTBF > 0 || *faultCorrMTBF > 0},
		{"fault-straggler-duration", "without a positive -fault-straggler-mtbf", *faultStragglerMTBF > 0},
		{"fault-straggler-factor", "without a positive -fault-straggler-mtbf", *faultStragglerMTBF > 0},
		{"fault-correlated-size", "without a positive -fault-correlated-mtbf", *faultCorrMTBF > 0},
		{"last", "without -trace", *trace != ""},
		{"monitor-csv", "without a positive -monitor", *monitor > 0},
		{"trace", "with -report", !*report},
		{"jobs-csv", "with -report", !*report},
		{"monitor-csv", "with -report", !*report},
		{"monitor", "with -policy " + *policy, *policy == string(clustersched.PolicyLibra) || *policy == string(clustersched.PolicyLibraRisk)},
	} {
		if set[dep.flag] && !dep.used {
			return fmt.Errorf("-%s is set, but %s the run ignores it", dep.flag, dep.when)
		}
	}

	o.Policy = clustersched.Policy(*policy)
	o.Nodes = *nodes
	o.Rating = *rating
	o.Jobs = *jobs
	o.Seed = *seed
	o.ArrivalDelayFactor = *adf
	o.HighUrgencyFraction = *urgency
	o.DeadlineRatio = *ratio
	o.InaccuracyPct = *inacc
	o.RiskSigmaThreshold = *sigma
	o.NodeSelection = clustersched.NodeSelection(*selection)
	o.Estimator = *estimator
	o.UserModel = *users
	o.QoPSSlackFactor = *qopsSlack
	o.WorkConserving = !*strict
	o.MonitorInterval = *monitor
	o.FaultSeed = *faultSeed
	o.FaultMTBF = *faultMTBF
	o.FaultStragglerMTBF = *faultStragglerMTBF
	o.FaultCorrelatedMTBF = *faultCorrMTBF
	if o.FaultMTBF > 0 || o.FaultCorrelatedMTBF > 0 {
		o.FaultMTTR = *faultMTTR
	}
	if o.FaultStragglerMTBF > 0 {
		o.FaultStragglerDuration = *faultStragglerDur
		o.FaultStragglerFactor = *faultStragglerFactor
	}
	if o.FaultCorrelatedMTBF > 0 {
		o.FaultCorrelatedSize = *faultCorrSize
	}
	o.FaultHorizon = *faultHorizon
	o.CheckInvariants = *checkInv
	o.MaxEvents = *maxEvents

	if *report {
		out, err := clustersched.Report(o)
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, out)
		return err
	}

	var res clustersched.Result
	var err error
	if *trace != "" {
		f, ferr := os.Open(*trace)
		if ferr != nil {
			return ferr
		}
		var loaded []clustersched.Job
		loaded, err = clustersched.LoadSWF(f, o, *lastN)
		f.Close()
		if err != nil {
			return err
		}
		res, err = clustersched.SimulateJobsContext(ctx, o, loaded)
	} else {
		res, err = clustersched.SimulateContext(ctx, o)
	}
	if err != nil {
		return err
	}

	s := res.Summary
	fmt.Fprintf(stdout, "policy                 %s\n", res.Policy)
	fmt.Fprintf(stdout, "submitted              %d\n", s.Submitted)
	fmt.Fprintf(stdout, "rejected               %d\n", s.Rejected)
	fmt.Fprintf(stdout, "completed              %d (met %d, missed %d)\n", s.Completed, s.Met, s.Missed)
	fmt.Fprintf(stdout, "unfinished             %d\n", s.Unfinished)
	fmt.Fprintf(stdout, "deadlines fulfilled    %.2f %%\n", s.PctFulfilled)
	fmt.Fprintf(stdout, "avg slowdown (met)     %.2f\n", s.AvgSlowdownMet)
	fmt.Fprintf(stdout, "acceptance rate        %.2f\n", s.AcceptanceRate)
	if s.Killed > 0 {
		fmt.Fprintf(stdout, "killed by node crashes %d (resubmitted)\n", s.Killed)
	}

	if *monitorCSV != "" && len(res.Monitor) > 0 {
		if err := writeMonitorCSV(*monitorCSV, res.Monitor); err != nil {
			return err
		}
	}
	if *jobsCSV != "" {
		if err := writeJobsCSV(*jobsCSV, res.Jobs); err != nil {
			return err
		}
	}
	return nil
}

func writeMonitorCSV(path string, samples []clustersched.MonitorSample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "time,utilization,running,busy_nodes,mean_sigma,mean_mu,delayed_jobs,zero_risk_nodes,down_nodes")
	for _, s := range samples {
		fmt.Fprintf(f, "%g,%.4f,%d,%d,%.4f,%.4f,%d,%d,%d\n",
			s.Time, s.Utilization, s.RunningJobs, s.BusyNodes, s.MeanSigma, s.MeanMu, s.DelayedJobs, s.ZeroRiskNodes, s.DownNodes)
	}
	return nil
}

func writeJobsCSV(path string, jobs []clustersched.JobOutcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "job,outcome,finish,response,delay,slowdown,reason")
	for _, j := range jobs {
		fmt.Fprintf(f, "%d,%s,%g,%g,%g,%g,%q\n",
			j.JobID, j.Outcome, j.Finish, j.Response, j.Delay, j.Slowdown, j.Reason)
	}
	return nil
}
