package clustersched

import (
	"math"
	"testing"

	"clustersched/internal/experiment"
)

// budgetSource says where an allocation budget comes from.
type budgetSource int

const (
	// exact: the count was the same in every measured run, so the budget
	// is the count itself and one more allocation per op fails.
	exact budgetSource = iota
	// slack: the count varies from run to run (the whole simulations, by
	// at most 0.2 % over 20 runs), so the budget is its maximum ×
	// allocSlack, rounded down.
	slack
)

// allocSlack is the one headroom factor for slack rows. It is over 25
// times their measured spread, and well below what a regression of one
// allocation per simulated job would add (+50 % or more on these rows).
const allocSlack = 1.05

// TestAllocationBudgets holds the admission, predictor, policy-run and
// serving benchmarks to the allocations per op they were measured at.
// Each row builds its op with the same constructor its benchmark times
// and counts allocations with testing.AllocsPerRun, after the warm-up the
// constructor does and the one call AllocsPerRun makes first. The counts
// were taken from 20 runs of this test; AllocsPerRun truncates its average
// to a whole number, so amortized slice growth does not show.
//
// Under -race sync.Pool drops entries at random, so a row whose path goes
// through a pool (fmt and encoding/json among them) allocates more there.
// The racy rows are those that failed under -race in five runs, plus
// PolicyLibraRiskFullScale, which came within 1 % of its budget. They skip
// under -race rather than carry budgets raised to fit it.
func TestAllocationBudgets(t *testing.T) {
	for _, row := range []struct {
		name   string // the benchmark, without its Benchmark prefix
		op     func(testing.TB) func()
		runs   int
		allocs float64 // measured allocations per op (the maximum, for slack rows)
		source budgetSource
		racy   bool // skipped under -race
	}{
		{"PredictorScaling/slices=1", predictorOp(1), 100, 0, exact, false},
		{"PredictorScaling/slices=4", predictorOp(4), 100, 0, exact, false},
		{"PredictorScaling/slices=16", predictorOp(16), 100, 0, exact, false},
		{"PredictorScaling/slices=64", predictorOp(64), 100, 0, exact, false},
		{"PredictorScaling/sigma0/slices=256", underloadedOp(256), 100, 1, exact, true},
		{"PredictorScaling/sigma0/slices=1024", underloadedOp(1024), 100, 1, exact, true},
		{"PredictorScaling/sigma0/slices=4096", underloadedOp(4096), 100, 1, exact, true},
		{"AdmissionRiskScan2", riskScanOp(2), 100, 0, exact, false},
		{"AdmissionRiskScan8", riskScanOp(8), 100, 0, exact, false},
		{"AdmissionSubmitReject", submitRejectOp(128, 4, false), 100, 1, exact, true},
		{"AdmissionRiskScanReject512", submitRejectOp(512, 7, false), 50, 1, exact, true},
		{"AdmissionObsDisabledSubmit", submitRejectOp(128, 4, true), 100, 1, exact, true},
		{"AdmissionLibraShareScan", libraShareScanOp, 100, 0, exact, false},
		{"AdmissionFirstFitAccept", firstFitAcceptOp, 100, 0, exact, false},
		{"PolicyLibraFullScale", runOp(experiment.DefaultBase(), experiment.Libra), 2, 2812, slack, true},
		{"PolicyLibraRiskFullScale", runOp(experiment.DefaultBase(), experiment.LibraRisk), 2, 2952, slack, true},
		{"LibraRisk512x10k", runOp(scaledBase(512, 10_000), experiment.LibraRisk), 1, 10842, slack, false},
		{"ExtensionPolicies/fcfs", extensionOp(PolicyFCFS), 2, 143, exact, false},
		{"ExtensionPolicies/backfill-easy", extensionOp(PolicyBackfillEASY), 2, 8041, slack, false},
		{"ExtensionPolicies/backfill-conservative", extensionOp(PolicyBackfillConservative), 2, 9736, slack, false},
		{"ExtensionPolicies/qops", extensionOp(PolicyQoPS), 2, 4104, slack, false},
		{"ServeAdmit", serveAdmitOp(inMemory, false), 200, 41, exact, true},
		{"ServeAdmitCheckpoint", serveAdmitOp(drainCheckpoint, false), 200, 41, exact, true},
		{"ServeAdmitDurable", serveAdmitOp(durableWAL, false), 200, 45, exact, true},
		{"ServeAdmitSpans", serveAdmitOp(inMemory, true), 200, 42, exact, true},
		{"ServeAdmitDurableSpans", serveAdmitOp(durableWAL, true), 200, 46, exact, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			if raceEnabled && row.racy {
				t.Skip("allocates more under -race")
			}
			budget := row.allocs
			if row.source == slack {
				budget = math.Floor(budget * allocSlack)
			}
			if got := testing.AllocsPerRun(row.runs, row.op(t)); got > budget {
				t.Errorf("%v allocs/op, budget %v (measured %v)", got, budget, row.allocs)
			}
		})
	}
}
