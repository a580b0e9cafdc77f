// Sitestudy: the end-to-end workflow for a site evaluating risk-aware
// admission control on its own workload without sharing its trace:
//
//  1. calibrate the synthetic generator to a real SWF trace (here a
//     stand-in trace is synthesized first; pass your own as argv[1]),
//
//  2. generate a statistically matching private clone,
//
//  3. replicate the policy comparison across seeds with confidence
//     intervals.
//
//     go run ./examples/sitestudy [trace.swf]
package main

import (
	"fmt"
	"log"
	"os"

	"clustersched"
)

func main() {
	opts := clustersched.DefaultOptions()
	opts.Nodes = 32
	opts.Jobs = 600

	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		// No site trace supplied: synthesize one to stand in for it.
		ws, err := clustersched.GenerateWorkload(opts)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.CreateTemp("", "site-trace-*.swf")
		if err != nil {
			log.Fatal(err)
		}
		path = f.Name()
		defer os.Remove(path)
		if err := clustersched.SaveSWF(f, ws, opts.Nodes); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Println("using a stand-in site trace")
	}

	// Step 1+2: calibrate and clone.
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	clone, err := clustersched.GenerateCalibratedWorkload(f, opts)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated clone: %d jobs\n\n", len(clone))

	// Step 3: compare policies on the clone (single draw)…
	fmt.Println("single-draw comparison on the calibrated clone:")
	for _, policy := range []clustersched.Policy{
		clustersched.PolicyEDF,
		clustersched.PolicyLibra,
		clustersched.PolicyLibraRisk,
	} {
		o := opts
		o.Policy = policy
		res, err := clustersched.SimulateJobs(o, clone)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s fulfilled %6.2f %%  slowdown %5.2f\n",
			policy, res.Summary.PctFulfilled, res.Summary.AvgSlowdownMet)
	}

	// …and statistically, regenerating fresh clones per seed.
	fmt.Println("\nmulti-seed replication (mean ± 95% CI):")
	for _, policy := range []clustersched.Policy{
		clustersched.PolicyLibra,
		clustersched.PolicyLibraRisk,
	} {
		o := opts
		o.Policy = policy
		rep, err := clustersched.Replicate(o, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s fulfilled %6.2f %% ± %.2f\n",
			policy, rep.FulfilledMean, rep.FulfilledCI95)
	}
	fmt.Println("\nA LibraRisk advantage that survives the confidence interval on")
	fmt.Println("the site's own workload shape is the adoption signal.")
}
