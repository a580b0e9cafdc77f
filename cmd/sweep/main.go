// Command sweep runs an ad-hoc one-parameter study: pick a parameter, a
// list of values and a set of policies, and get a table (or CSV) of the
// two evaluation metrics at every point — the quick-look companion to the
// fixed figures of cmd/experiments. Points run concurrently.
//
// Examples:
//
//	sweep -param adf -values 0.1,0.3,0.5,1.0
//	sweep -param urgency -values 0,0.2,0.5,0.8 -policies libra,librarisk
//	sweep -param nodes -values 32,64,128 -inaccuracy 100 -csv -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"clustersched"
	"clustersched/internal/cli"
)

func main() {
	cli.Main("sweep", run)
}

// sweepParams maps -param names to Options mutators.
var sweepParams = map[string]func(*clustersched.Options, float64) error{
	"adf": func(o *clustersched.Options, v float64) error {
		o.ArrivalDelayFactor = v
		return nil
	},
	"urgency": func(o *clustersched.Options, v float64) error {
		o.HighUrgencyFraction = v
		return nil
	},
	"ratio": func(o *clustersched.Options, v float64) error {
		o.DeadlineRatio = v
		return nil
	},
	"inaccuracy": func(o *clustersched.Options, v float64) error {
		o.InaccuracyPct = v
		return nil
	},
	"sigma": func(o *clustersched.Options, v float64) error {
		o.RiskSigmaThreshold = v
		return nil
	},
	"qops-slack": func(o *clustersched.Options, v float64) error {
		o.QoPSSlackFactor = v
		return nil
	},
	"nodes": func(o *clustersched.Options, v float64) error {
		if v != float64(int(v)) || v <= 0 {
			return fmt.Errorf("nodes value %g is not a positive integer", v)
		}
		o.Nodes = int(v)
		return nil
	},
	"jobs": func(o *clustersched.Options, v float64) error {
		if v != float64(int(v)) || v <= 0 {
			return fmt.Errorf("jobs value %g is not a positive integer", v)
		}
		o.Jobs = int(v)
		return nil
	},
}

func paramNames() []string {
	return []string{"adf", "urgency", "ratio", "inaccuracy", "sigma", "qops-slack", "nodes", "jobs"}
}

// parseValues parses the comma-separated -values list, reporting the
// 1-based position of the first unparseable or duplicate entry (a
// duplicate would silently re-run the same grid cell).
func parseValues(values string) ([]float64, error) {
	var xs []float64
	first := make(map[float64]int)
	for i, tok := range strings.Split(values, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("-values entry %d: bad value %q: %v", i+1, tok, err)
		}
		if at, dup := first[v]; dup {
			return nil, fmt.Errorf("-values entry %d: %g duplicates entry %d", i+1, v, at)
		}
		first[v] = i + 1
		xs = append(xs, v)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("no sweep values")
	}
	return xs, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	base := clustersched.DefaultOptions()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	param := fs.String("param", "adf", "parameter to sweep: "+strings.Join(paramNames(), " | "))
	values := fs.String("values", "0.1,0.3,0.5,0.7,1.0", "comma-separated sweep values")
	policies := fs.String("policies", "edf,libra,librarisk", "comma-separated policies")
	nodes := fs.Int("nodes", base.Nodes, "cluster size (unless swept)")
	jobs := fs.Int("jobs", base.Jobs, "workload size (unless swept)")
	seed := fs.Uint64("seed", base.Seed, "workload seed")
	inacc := fs.Float64("inaccuracy", base.InaccuracyPct, "estimate inaccuracy %% (unless swept)")
	urgency := fs.Float64("urgency", base.HighUrgencyFraction, "high urgency fraction (unless swept)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mutate, ok := sweepParams[*param]
	if !ok {
		return fmt.Errorf("unknown -param %q (want %s)", *param, strings.Join(paramNames(), " | "))
	}
	xs, err := parseValues(*values)
	if err != nil {
		return err
	}
	var pols []clustersched.Policy
	for _, tok := range strings.Split(*policies, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		pols = append(pols, clustersched.Policy(tok))
	}
	if len(pols) == 0 {
		return fmt.Errorf("no policies")
	}

	base.Nodes = *nodes
	base.Jobs = *jobs
	base.Seed = *seed
	base.InaccuracyPct = *inacc
	base.HighUrgencyFraction = *urgency

	var batch []clustersched.Options
	for _, pol := range pols {
		for _, x := range xs {
			o := base
			o.Policy = pol
			if err := mutate(&o, x); err != nil {
				return err
			}
			batch = append(batch, o)
		}
	}
	results, err := clustersched.SimulateManyContext(ctx, batch)
	if err != nil {
		return err
	}

	if *csv {
		fmt.Fprintln(stdout, "param,value,policy,fulfilled_pct,avg_slowdown,rejected,missed")
		i := 0
		for _, pol := range pols {
			for _, x := range xs {
				s := results[i].Summary
				fmt.Fprintf(stdout, "%s,%g,%s,%.4f,%.4f,%d,%d\n",
					*param, x, pol, s.PctFulfilled, s.AvgSlowdownMet, s.Rejected, s.Missed)
				i++
			}
		}
		return nil
	}
	fmt.Fprintf(stdout, "sweep over %s (jobs %d, nodes swept or %d):\n\n", *param, base.Jobs, base.Nodes)
	fmt.Fprintf(stdout, "%-12s", *param)
	for _, pol := range pols {
		fmt.Fprintf(stdout, "  %22s", pol)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-12s", "")
	for range pols {
		fmt.Fprintf(stdout, "  %10s %11s", "fulfilled", "slowdown")
	}
	fmt.Fprintln(stdout)
	for xi, x := range xs {
		fmt.Fprintf(stdout, "%-12g", x)
		for pi := range pols {
			s := results[pi*len(xs)+xi].Summary
			fmt.Fprintf(stdout, "  %9.2f%% %11.2f", s.PctFulfilled, s.AvgSlowdownMet)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
