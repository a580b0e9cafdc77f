// Command experiments regenerates the paper's evaluation — the workload
// characteristics table (§4) and figures 1-4 — plus the extension
// experiments, each as aligned tables with ASCII plots and optional CSV
// and SVG output, or a multi-seed replication of the headline comparison.
//
// A long regeneration is supervised: SIGINT (or SIGTERM) stops admitting
// sweep cells, drains the in-flight simulations, and exits 130; -resume
// checkpoints every completed cell to a journal file so the next
// invocation with the same journal picks up where the interrupted one
// stopped, with byte-identical output.
//
// Examples:
//
//	experiments                       # everything at paper scale
//	experiments -exp fig4             # one figure
//	experiments -exp extensions       # allpolicies + hetero + prediction + chaos
//	experiments -exp chaos            # node-failure sweep (fault injection)
//	experiments -jobs 500 -nodes 32   # quick scaled-down pass
//	experiments -csv out/ -svg out/   # also write data files and charts
//	experiments -replicate 5          # headline numbers with 95% CIs
//	experiments -resume run.jsonl     # checkpoint cells; resume after ^C
//	experiments -progress             # live cell count on stderr
//	experiments -exp fig1 -cpuprofile cpu.out -memprofile mem.out
//	experiments -exp fig2 -audit audit.jsonl    # admission audit log
//	experiments -trace trace.json               # Chrome trace of every run
//	experiments -metrics metrics.prom           # Prometheus-format metrics
//	experiments -summary-format json            # machine-readable figures
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"clustersched"
	"clustersched/internal/cli"
)

func main() {
	cli.Main("experiments", run)
}

func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	o := clustersched.DefaultOptions()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "which experiment: all | table | fig1 | fig2 | fig3 | fig4 | predict | allpolicies | hetero | chaos | economics | extensions")
	jobs := fs.Int("jobs", o.Jobs, "workload size")
	nodes := fs.Int("nodes", o.Nodes, "cluster size")
	seed := fs.Uint64("seed", o.Seed, "workload seed")
	csvDir := fs.String("csv", "", "directory to also write per-figure CSV files into")
	svgDir := fs.String("svg", "", "directory to also write per-figure SVG charts into")
	replicate := fs.Int("replicate", 0, "instead of figures, print the headline comparison across N workload seeds with 95% confidence intervals")
	resume := fs.String("resume", "", "checkpoint journal file: record completed sweep cells and reuse the ones already there")
	progress := fs.Bool("progress", false, "report sweep progress per completed cell on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the regeneration to `file`")
	memprofile := fs.String("memprofile", "", "write a post-GC heap profile to `file` on exit")
	traceOut := fs.String("trace", "", "record simulation traces (job lifecycle, node state, faults) to `file`; paper figures and chaos only")
	traceFormat := fs.String("trace-format", "chrome", "trace output format: chrome (trace_event JSON for chrome://tracing) | jsonl")
	metricsOut := fs.String("metrics", "", "record merged simulation metrics to `file`; paper figures and chaos only")
	metricsFormat := fs.String("metrics-format", "prom", "metrics output format: prom (Prometheus text) | json")
	auditOut := fs.String("audit", "", "record every admission decision (per-node σ/share, rejection reason) to `file` as JSONL; paper figures and chaos only")
	summaryFormat := fs.String("summary-format", "text", "figure and table output format on stdout: text | json (timing chatter moves to stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *traceFormat {
	case "chrome", "jsonl":
	default:
		return fmt.Errorf("unknown -trace-format %q (want chrome or jsonl)", *traceFormat)
	}
	switch *metricsFormat {
	case "prom", "json":
	default:
		return fmt.Errorf("unknown -metrics-format %q (want prom or json)", *metricsFormat)
	}
	switch *summaryFormat {
	case "text", "json":
	default:
		return fmt.Errorf("unknown -summary-format %q (want text or json)", *summaryFormat)
	}
	jsonSummary := *summaryFormat == "json"

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	o.Jobs = *jobs
	o.Nodes = *nodes
	o.Seed = *seed

	if *replicate > 0 {
		return runReplication(ctx, stdout, o, *replicate)
	}
	if *exp == "economics" {
		return runEconomics(ctx, stdout, o)
	}

	for _, dir := range []string{*csvDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	wantTable := *exp == "all" || *exp == "table"
	var wantFigs []string
	switch *exp {
	case "all":
		wantFigs = clustersched.FigureIDs()
	case "table":
	case "fig1", "fig2", "fig3", "fig4":
		wantFigs = []string{"figure" + (*exp)[3:]}
	case "predict":
		wantFigs = []string{"prediction"}
	case "allpolicies", "hetero", "chaos":
		wantFigs = []string{*exp}
	case "extensions":
		wantFigs = clustersched.ExtensionFigureIDs()
	default:
		return fmt.Errorf("unknown -exp %q", *exp)
	}

	// One builder for the whole run: the base workload is generated once
	// and shared by the table and the paper figures.
	builder, err := clustersched.NewFigureBuilder(o)
	if err != nil {
		return err
	}
	if *resume != "" {
		loaded, err := builder.OpenJournal(*resume)
		if err != nil {
			return err
		}
		// Resume chatter goes to stderr: stdout stays figure-only so an
		// interrupted-then-resumed run matches an uninterrupted one.
		fmt.Fprintf(os.Stderr, "experiments: journal %s: %d cells on file\n", *resume, loaded)
	}
	var obsv *clustersched.Observation
	if *traceOut != "" || *metricsOut != "" || *auditOut != "" {
		obsv = builder.Observe(clustersched.ObserveConfig{
			Trace:   *traceOut != "",
			Metrics: *metricsOut != "",
			Audit:   *auditOut != "",
		})
		if *resume != "" {
			// A journal-satisfied cell is not re-run and records nothing;
			// warn so a partially-resumed trace isn't mistaken for complete.
			fmt.Fprintln(os.Stderr, "experiments: note: cells satisfied from the journal contribute no trace/metrics/audit output")
		}
	}
	if *progress {
		builder.SetProgress(func(p clustersched.BuildProgress) {
			state := "ran"
			switch {
			case p.Err != nil:
				state = "failed"
			case p.FromJournal:
				state = "journal"
			}
			fmt.Fprintf(os.Stderr, "experiments: [%d/%d] %s (%s)\n", p.Done, p.Total, p.Cell, state)
		})
	}
	// In JSON summary mode every timing/bookkeeping line moves to stderr so
	// stdout is a clean concatenation of JSON documents.
	chatter := io.Writer(stdout)
	if jsonSummary {
		chatter = os.Stderr
	}
	if wantTable {
		writeTable := builder.WriteWorkloadTable
		if jsonSummary {
			writeTable = builder.WriteWorkloadTableJSON
		}
		if err := writeTable(stdout); err != nil {
			return err
		}
	}
	renderFig := clustersched.RenderFigure
	if jsonSummary {
		renderFig = clustersched.RenderFigureJSON
	}
	for _, id := range wantFigs {
		start := time.Now()
		fig, err := builder.BuildContext(ctx, id)
		if err != nil {
			return err
		}
		if err := renderFig(stdout, fig); err != nil {
			return err
		}
		fmt.Fprintf(chatter, "[%s regenerated in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			if err := writeFile(path, fig, clustersched.RenderFigureCSV); err != nil {
				return err
			}
			fmt.Fprintf(chatter, "[wrote %s]\n\n", path)
		}
		if *svgDir != "" {
			path := filepath.Join(*svgDir, id+".svg")
			if err := writeFile(path, fig, clustersched.RenderFigureSVG); err != nil {
				return err
			}
			fmt.Fprintf(chatter, "[wrote %s]\n\n", path)
		}
	}
	if obsv != nil {
		if err := writeObservation(obsv, *traceOut, *traceFormat, *metricsOut, *metricsFormat, *auditOut); err != nil {
			return err
		}
		// Observability bookkeeping goes to stderr unconditionally, so
		// stdout stays byte-identical to a run without these flags.
		if *traceOut != "" {
			fmt.Fprintf(os.Stderr, "experiments: wrote %s: %d trace events\n", *traceOut, obsv.EventCount())
		}
		if *metricsOut != "" {
			fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", *metricsOut)
		}
		if *auditOut != "" {
			fmt.Fprintf(os.Stderr, "experiments: wrote %s: %d admission decisions\n", *auditOut, obsv.DecisionCount())
		}
	}
	return nil
}

// writeObservation flushes the recorded observability layers to their
// output files in the selected formats.
func writeObservation(obsv *clustersched.Observation, traceOut, traceFormat, metricsOut, metricsFormat, auditOut string) error {
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceOut != "" {
		fn := obsv.WriteChromeTrace
		if traceFormat == "jsonl" {
			fn = obsv.WriteTraceJSONL
		}
		if err := write(traceOut, fn); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		fn := obsv.WritePrometheus
		if metricsFormat == "json" {
			fn = obsv.WriteMetricsJSON
		}
		if err := write(metricsOut, fn); err != nil {
			return err
		}
	}
	if auditOut != "" {
		if err := write(auditOut, obsv.WriteAuditJSONL); err != nil {
			return err
		}
	}
	return nil
}

// writeFile renders a figure into path with the given renderer.
func writeFile(path string, fig clustersched.Figure, render func(io.Writer, clustersched.Figure) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f, fig); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runEconomics prices every policy's outcomes under the default SLA
// economy, for both estimate regimes. Cancellation is honored between
// runs (each one is seconds at most).
func runEconomics(ctx context.Context, stdout io.Writer, o clustersched.Options) error {
	fmt.Fprintln(stdout, "provider economics per policy (default SLA pricing):")
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-22s %-9s %12s %12s %12s %14s\n",
		"policy", "estimates", "revenue", "penalties", "profit", "forgone")
	for _, pol := range clustersched.AllPolicies() {
		for _, mode := range []struct {
			label string
			pct   float64
		}{{"accurate", 0}, {"trace", 100}} {
			if err := ctx.Err(); err != nil {
				return err
			}
			eo := o
			eo.Policy = pol
			eo.InaccuracyPct = mode.pct
			eco, err := clustersched.ProviderEconomics(eo)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-22s %-9s %12.0f %12.0f %12.0f %14.0f\n",
				pol, mode.label, eco.Revenue, eco.Penalties, eco.Profit, eco.ForgoneRevenue)
		}
	}
	return nil
}

// runReplication prints the paper's headline comparison (all three
// policies, accurate vs trace estimates) as mean ± 95 % CI over n seeds.
// Cancellation is honored between replication batches.
func runReplication(ctx context.Context, stdout io.Writer, o clustersched.Options, n int) error {
	fmt.Fprintf(stdout, "headline comparison across %d workload seeds (mean ± 95%% CI):\n\n", n)
	fmt.Fprintln(stdout, "policy      estimates  deadlines fulfilled      avg slowdown")
	for _, pol := range []clustersched.Policy{
		clustersched.PolicyEDF, clustersched.PolicyLibra, clustersched.PolicyLibraRisk,
	} {
		for _, mode := range []struct {
			label string
			pct   float64
		}{{"accurate", 0}, {"trace", 100}} {
			if err := ctx.Err(); err != nil {
				return err
			}
			ro := o
			ro.Policy = pol
			ro.InaccuracyPct = mode.pct
			rep, err := clustersched.Replicate(ro, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-11s %-9s  %6.2f %% ± %5.2f       %6.2f ± %5.2f\n",
				pol, mode.label, rep.FulfilledMean, rep.FulfilledCI95,
				rep.SlowdownMean, rep.SlowdownCI95)
		}
	}
	return nil
}
