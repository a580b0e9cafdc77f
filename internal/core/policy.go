package core

import (
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// Policy is a deadline-constrained job admission control plus scheduler.
// Submit is called at each job's arrival time with the runtime estimate
// the scheduler is allowed to see (the real runtime stays hidden inside
// the job and drives execution only). Completion and rejection outcomes
// flow into the policy's metrics recorder.
//
// Submit also returns its decision: accepted is false, with the recorded
// reason, exactly when this call rejected this job. A job a queueing
// policy holds for a later decision counts as accepted.
type Policy interface {
	Name() string
	Submit(e *sim.Engine, job workload.Job, estimate float64) (accepted bool, reason string)
}

// NodeSelection chooses how Libra-style policies order suitable nodes.
type NodeSelection int

const (
	// BestFit selects the nodes with the least available processor time
	// after accepting the job (Libra's strategy: saturate nodes).
	BestFit NodeSelection = iota
	// FirstFit selects suitable nodes in index order (the literal reading
	// of LibraRisk's Algorithm 1).
	FirstFit
	// WorstFit selects the nodes with the most available processor time
	// after accepting the job (load levelling; ablation only).
	WorstFit
)

func (s NodeSelection) String() string {
	switch s {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return "unknown-fit"
	}
}
