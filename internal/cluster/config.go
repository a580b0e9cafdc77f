// Package cluster models the execution substrate: a set of computation
// nodes with SPEC ratings that run jobs either time-shared under
// deadline-proportional processor sharing (the Libra/LibraRisk model) or
// space-shared one-job-per-processor (the EDF model).
//
// Terminology follows the paper: a "node" is one processor with a SPEC
// rating; a job needing numproc processors holds one slice on each of
// numproc distinct nodes and completes when its slowest slice completes.
// All job durations arrive in "reference seconds" — dedicated runtime on a
// node of the cluster's reference rating — and are converted to per-node
// work through the machine-independent MI length.
package cluster

import "fmt"

// Config fixes the execution-model conventions the paper leaves implicit.
type Config struct {
	// RefRating is the SPEC rating in which job runtimes/estimates are
	// expressed (the SDSC SP2's 168 by default).
	RefRating float64
	// OverrunFloorWeight is the processor-share weight granted to a slice
	// whose believed (estimated) remaining work is exhausted but whose real
	// work is not: the job overran its estimate. It must be positive so
	// overrun jobs keep making progress, and small so they model the
	// starved leftovers a proportional-share allocator actually gives a
	// job it believes is about to exit.
	OverrunFloorWeight float64
	// MaxWeight caps any single slice's share demand at one full
	// processor.
	MaxWeight float64
	// WorkConserving, when true (the default model), redistributes unused
	// processor time proportionally so a node is never idle while work
	// remains. When false the node serves each slice at exactly its
	// guaranteed share — the strict reading of eq. (1) — and idles
	// otherwise; the ablation bench compares the two.
	WorkConserving bool
}

// DefaultConfig returns the conventions used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		RefRating:          168,
		OverrunFloorWeight: 0.02,
		MaxWeight:          1.0,
		WorkConserving:     true,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.RefRating <= 0:
		return fmt.Errorf("cluster: RefRating = %g, want > 0", c.RefRating)
	case c.OverrunFloorWeight <= 0 || c.OverrunFloorWeight > 1:
		return fmt.Errorf("cluster: OverrunFloorWeight = %g, want in (0,1]", c.OverrunFloorWeight)
	case c.MaxWeight <= 0 || c.MaxWeight > 1:
		return fmt.Errorf("cluster: MaxWeight = %g, want in (0,1]", c.MaxWeight)
	}
	return nil
}

// epsTime is the resolution guard for remaining-time arithmetic; intervals
// below it are treated as "now".
const epsTime = 1e-9

// epsWork is the resolution guard for remaining-work arithmetic; amounts
// below it are treated as complete.
const epsWork = 1e-9
