package cluster

import (
	"fmt"
	"math"

	"clustersched/internal/obs"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// KilledJob describes a job torn down by a node crash: the running
// instance plus its remaining work re-expressed in reference seconds so an
// admission policy can resubmit it with the original deadline.
type KilledJob struct {
	Job *RunningJob
	// RemainingRuntime is the real work left, in reference seconds (the
	// maximum across the gang's slices — the job needs that much more
	// service on an equivalent allocation).
	RemainingRuntime float64
	// RemainingEstimate is the believed work left under the admitted
	// estimate, floored at a microsecond so resubmission always carries a
	// positive estimate.
	RemainingEstimate float64
}

// TimeShared is a cluster of proportional-share nodes (the Libra and
// LibraRisk execution substrate).
type TimeShared struct {
	nodes []*PSNode

	// OnJobDone, if set, is invoked when the last slice of a job
	// completes. rj is valid only until the handler returns: its storage
	// is then recycled for a later job.
	OnJobDone func(e *sim.Engine, rj *RunningJob)

	// OnJobKilled, if set, is invoked for each job torn down by
	// SetNodeDown, after all node state has been cleaned up (so a handler
	// that resubmits immediately sees the crashed node as down and its
	// survivors re-timed). kj.Job is valid only until the handler returns.
	OnJobKilled func(e *sim.Engine, kj KilledJob)

	// Trace and Metrics are the optional observability hooks. Both default
	// to nil (one pointer comparison per would-be emission, nothing else)
	// and survive Reset — the experiment layer reattaches them per run.
	Trace   obs.Tracer
	Metrics *obs.SimMetrics

	running int
	killed  int

	// Allocation arenas and scratch. A slice's slot is recycled when the
	// slice retires or is dropped by a kill, and a RunningJob's once its
	// done or killed handler returns, so the slots in use are bounded by
	// the jobs running at once and steady-state Submit traffic never
	// touches the heap. A RunningJob slot keeps its node-ID storage for
	// every job it holds.
	rjArena arena[RunningJob]
	slArena arena[slice]
	idArena intArena
	seen    []bool // Submit duplicate-detection scratch, always all-false between calls
}

// NewTimeShared builds a homogeneous cluster of n nodes with the given
// SPEC rating.
func NewTimeShared(n int, rating float64, cfg Config) (*TimeShared, error) {
	ratings := make([]float64, n)
	for i := range ratings {
		ratings[i] = rating
	}
	return NewTimeSharedHetero(ratings, cfg)
}

// NewTimeSharedHetero builds a cluster with per-node SPEC ratings.
func NewTimeSharedHetero(ratings []float64, cfg Config) (*TimeShared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ratings) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	c := &TimeShared{}
	for i, r := range ratings {
		if r <= 0 {
			return nil, fmt.Errorf("cluster: node %d rating %g, want > 0", i, r)
		}
		node := &PSNode{id: i, rating: r, cfg: cfg, speed: 1}
		node.onSliceDone = c.sliceDone
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// Reset returns the cluster to its freshly constructed state in place:
// every node comes back up, empty and at nominal speed, counters zero, and
// the arenas rewind so their chunks are reused by the next run. Callbacks
// (OnJobDone etc.) are left installed. Every *RunningJob handed out before
// the Reset is invalidated — its storage will be reused.
//
// Reset must run AFTER the owning engine's Reset (or on an idle engine):
// it drops node update-event references without cancelling them, relying on
// the engine drain having already reclaimed the events.
func (c *TimeShared) Reset() {
	for _, n := range c.nodes {
		n.reset()
	}
	c.rjArena.reset()
	c.slArena.reset()
	c.running, c.killed = 0, 0
}

// Len returns the number of nodes.
func (c *TimeShared) Len() int { return len(c.nodes) }

// Node returns node i.
func (c *TimeShared) Node(i int) *PSNode { return c.nodes[i] }

// Running returns the number of jobs currently executing.
func (c *TimeShared) Running() int { return c.running }

// Killed returns the number of jobs torn down by node crashes so far.
func (c *TimeShared) Killed() int { return c.killed }

// UpNodes returns the number of nodes currently up.
func (c *TimeShared) UpNodes() int {
	up := 0
	for _, n := range c.nodes {
		if !n.down {
			up++
		}
	}
	return up
}

// SetNodeSpeed re-times node id at a new effective-rate multiplier (1 is
// nominal, values in (0,1) model a transient straggler).
func (c *TimeShared) SetNodeSpeed(e *sim.Engine, id int, factor float64) {
	before := c.nodes[id].Speed()
	c.nodes[id].SetSpeed(e, factor)
	after := c.nodes[id].Speed()
	if after == before {
		return
	}
	if c.Trace != nil {
		kind := obs.KindNodeSlow
		if after == 1 {
			kind = obs.KindNodeNominal
		}
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: kind, Job: -1, Node: id, Value: after})
	}
	if c.Metrics != nil && after != 1 {
		c.Metrics.NodeSlowdowns.Inc()
	}
}

// SetNodeDown crashes (down=true) or recovers (down=false) node id.
//
// A crash tears down every job with a slice on the node: the gang's other
// slices are removed from their nodes (survivors there are re-timed), the
// job's remaining real/believed work is captured in reference seconds, and
// OnJobKilled fires once per job after all cluster state is consistent —
// so a handler that resubmits immediately cannot land on the dead node.
// Recovery brings the node back empty. Both directions
// are idempotent. It returns the number of jobs killed.
func (c *TimeShared) SetNodeDown(e *sim.Engine, id int, down bool) int {
	node := c.nodes[id]
	if down == node.down {
		return 0
	}
	if !down {
		node.markUp()
		if c.Trace != nil {
			c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindNodeUp, Job: -1, Node: id})
		}
		if c.Metrics != nil {
			c.Metrics.NodeRepairs.Inc()
		}
		return 0
	}
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindNodeDown, Job: -1, Node: id})
	}
	if c.Metrics != nil {
		c.Metrics.NodeCrashes.Inc()
	}
	victims := node.markDown(e)
	killed := make([]KilledJob, 0, len(victims))
	for _, sl := range victims {
		rj := sl.job
		kj := KilledJob{
			Job:               rj,
			RemainingRuntime:  node.NodeSecondsToWork(math.Max(0, sl.realWork)),
			RemainingEstimate: node.NodeSecondsToWork(math.Max(0, sl.believedWork)),
		}
		c.slArena.release(sl)
		// Tear down the rest of the gang; the gang-wide remainder is the
		// maximum over its slices (the job must redo its longest slice).
		for _, nid := range rj.NodeIDs {
			if nid == id {
				continue
			}
			sib := c.nodes[nid]
			dropped := sib.removeJobSlice(e, rj)
			if dropped == nil {
				continue
			}
			kj.RemainingRuntime = math.Max(kj.RemainingRuntime, sib.NodeSecondsToWork(math.Max(0, dropped.realWork)))
			kj.RemainingEstimate = math.Max(kj.RemainingEstimate, sib.NodeSecondsToWork(math.Max(0, dropped.believedWork)))
			c.slArena.release(dropped)
		}
		if kj.RemainingEstimate < 1e-6 {
			kj.RemainingEstimate = 1e-6
		}
		c.running--
		c.killed++
		if c.Trace != nil {
			c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindKill, Job: rj.Job.ID, Node: id, Value: kj.RemainingRuntime})
		}
		if c.Metrics != nil {
			c.Metrics.Kills.Inc()
		}
		killed = append(killed, kj)
	}
	for _, kj := range killed {
		if c.OnJobKilled != nil {
			c.OnJobKilled(e, kj)
		}
		c.rjArena.release(kj.Job)
	}
	return len(killed)
}

// CheckInvariants validates the cluster's structural invariants: a down
// node holds no slices, every slice's remaining real work is non-negative
// (modulo float noise), speeds are positive, and the running count is
// non-negative. Returns nil when all hold.
func (c *TimeShared) CheckInvariants() error {
	if c.running < 0 {
		return fmt.Errorf("cluster: running count %d < 0", c.running)
	}
	for _, n := range c.nodes {
		if n.down && len(n.slices) > 0 {
			return fmt.Errorf("cluster: down node %d holds %d slice(s)", n.id, len(n.slices))
		}
		if n.speed <= 0 {
			return fmt.Errorf("cluster: node %d speed %g, want > 0", n.id, n.speed)
		}
		for _, sl := range n.slices {
			if sl.realWork < -1e-6 {
				return fmt.Errorf("cluster: node %d job %d remaining work %g < 0", n.id, sl.job.Job.ID, sl.realWork)
			}
		}
	}
	return nil
}

// Submit places a job on the given nodes (one slice each) with the given
// runtime estimate in reference seconds. The nodes must be distinct and
// exactly NumProc many; admission policy is the caller's responsibility.
func (c *TimeShared) Submit(e *sim.Engine, job workload.Job, estimate float64, nodeIDs []int) (*RunningJob, error) {
	if len(nodeIDs) != job.NumProc {
		return nil, fmt.Errorf("cluster: job %d needs %d nodes, got %d", job.ID, job.NumProc, len(nodeIDs))
	}
	if estimate <= 0 {
		return nil, fmt.Errorf("cluster: job %d estimate %g, want > 0", job.ID, estimate)
	}
	if c.seen == nil {
		c.seen = make([]bool, len(c.nodes))
	}
	var checkErr error
	marked := 0
	for _, id := range nodeIDs {
		switch {
		case id < 0 || id >= len(c.nodes):
			checkErr = fmt.Errorf("cluster: node id %d out of range", id)
		case c.seen[id]:
			checkErr = fmt.Errorf("cluster: duplicate node id %d", id)
		case c.nodes[id].down:
			checkErr = fmt.Errorf("cluster: node %d is down", id)
		}
		if checkErr != nil {
			break
		}
		c.seen[id] = true
		marked++
	}
	for _, id := range nodeIDs[:marked] {
		c.seen[id] = false
	}
	if checkErr != nil {
		return nil, checkErr
	}
	rj := c.rjArena.alloc()
	ids := c.idArena.fitIDs(rj.NodeIDs, nodeIDs)
	*rj = RunningJob{
		Job:             job,
		Estimate:        estimate,
		Start:           e.Now(),
		NodeIDs:         ids,
		remainingSlices: len(nodeIDs),
	}
	for _, id := range nodeIDs {
		node := c.nodes[id]
		sl := c.slArena.alloc()
		*sl = slice{
			job:          rj,
			realWork:     node.WorkToNodeSeconds(job.Runtime),
			believedWork: node.WorkToNodeSeconds(estimate),
		}
		node.addSlice(e, sl)
	}
	c.running++
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindStart, Job: job.ID, Node: nodeIDs[0], Value: estimate})
	}
	return rj, nil
}

// sliceDone is installed as every node's completion callback: it runs the
// job-level half of a slice completion — gang countdown and, on the last
// slice, job finish bookkeeping, observability and the completion
// callback. The slice's storage is recycled, and on the last slice the
// job's too, once OnJobDone returns.
func (c *TimeShared) sliceDone(e *sim.Engine, sl *slice) {
	rj := sl.job
	c.slArena.release(sl)
	rj.remainingSlices--
	if rj.remainingSlices > 0 {
		return
	}
	rj.done = true
	rj.Finish = e.Now()
	c.running--
	if c.Trace != nil || c.Metrics != nil {
		c.emitFinish(e, rj)
	}
	if c.OnJobDone != nil {
		c.OnJobDone(e, rj)
	}
	c.rjArena.release(rj)
}

// emitFinish reports a completed job to the observability hooks: a finish
// event carrying the response time, plus a deadline-miss annotation when
// the job ran past its hard deadline (same epsTime tolerance as
// RunningJob.DeadlineMet).
func (c *TimeShared) emitFinish(e *sim.Engine, rj *RunningJob) {
	response := rj.Finish - rj.Job.Submit
	missed := rj.Finish > rj.Job.AbsDeadline()+epsTime
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Time: rj.Finish, Kind: obs.KindFinish, Job: rj.Job.ID, Node: rj.NodeIDs[0], Value: response})
		if missed {
			c.Trace.Emit(obs.Event{Time: rj.Finish, Kind: obs.KindDeadlineMiss, Job: rj.Job.ID, Node: rj.NodeIDs[0], Value: rj.Finish - rj.Job.AbsDeadline()})
		}
	}
	if c.Metrics != nil {
		c.Metrics.Completed.Inc()
		if missed {
			c.Metrics.DeadlineMisses.Inc()
		}
	}
}

// Utilization returns the exact fraction of cluster capacity used over
// [0, now]: total node-seconds served divided by nodes × elapsed time.
// Slices that are mid-interval are accounted up to their node's last
// accrual point, which event processing keeps within one event of now.
func (c *TimeShared) Utilization(now float64) float64 {
	if now <= 0 || len(c.nodes) == 0 {
		return 0
	}
	var served float64
	for _, n := range c.nodes {
		served += n.ServedWork()
		// Account the open interval since the node's last event.
		if dt := now - n.lastT; dt > 0 {
			for _, sl := range n.slices {
				served += sl.rate * dt
			}
		}
	}
	return served / (float64(len(c.nodes)) * now)
}

// MinRuntime returns the job's dedicated runtime on the slowest node it
// was allocated, the denominator of the paper's slowdown metric.
func (c *TimeShared) MinRuntime(rj *RunningJob) float64 {
	worst := 0.0
	for _, id := range rj.NodeIDs {
		if t := c.nodes[id].WorkToNodeSeconds(rj.Job.Runtime); t > worst {
			worst = t
		}
	}
	return worst
}
