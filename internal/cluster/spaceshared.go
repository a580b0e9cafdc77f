package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"clustersched/internal/obs"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// ssRunning tracks one executing gang on a space-shared cluster: the
// pending completion event plus enough remaining-work state to re-time the
// job when a fault changes its gang's effective pace. Work amounts are in
// reference seconds, accrued up to lastT.
type ssRunning struct {
	rj           *RunningJob
	ev           *sim.Event
	remaining    float64 // real work left at lastT
	estRemaining float64 // believed work left at lastT (for resubmission)
	lastT        float64

	// c and h make the completion handler persistent: h is the method value
	// r.fire, created once the first time this arena slot is used and kept
	// across the slot's reuse, so scheduling a completion allocates no
	// closure.
	c *SpaceShared
	h sim.Handler
}

// fire is the completion handler scheduled for the gang.
func (r *ssRunning) fire(e *sim.Engine) { r.c.finish(e, r) }

// SpaceShared is a cluster of dedicated nodes: each node runs at most one
// job slice at a time (the EDF execution substrate). A parallel job holds
// numproc whole nodes for its full runtime; with heterogeneous ratings the
// gang runs at the pace of its slowest node — at its slowest member's
// effective (speed-scaled) rating once faults degrade nodes.
type SpaceShared struct {
	cfg     Config
	ratings []float64
	busy    []bool
	free    int

	// down marks crashed nodes: excluded from free capacity until
	// recovery. speed is each node's effective-rate multiplier (1
	// nominal); see SetNodeSpeed.
	down  []bool
	speed []float64

	// OnJobDone fires when a job completes and its nodes are already
	// released, so the handler observes the post-completion free count.
	// rj is valid only until the handler returns.
	OnJobDone func(e *sim.Engine, rj *RunningJob)

	// OnJobKilled fires for each job torn down by SetNodeDown, after the
	// gang's surviving nodes are released and the crashed node is marked
	// down. kj.Job is valid only until the handler returns.
	OnJobKilled func(e *sim.Engine, kj KilledJob)

	// OnNodeUp fires when a crashed node recovers.
	OnNodeUp func(e *sim.Engine, id int)

	// Trace and Metrics are the optional observability hooks. Both default
	// to nil (one pointer comparison per would-be emission, nothing else)
	// and survive Reset — the experiment layer reattaches them per run.
	Trace   obs.Tracer
	Metrics *obs.SimMetrics

	running int
	killed  int
	runs    []*ssRunning

	// Arenas and scratch buffers; see arena.go. A run's slots are recycled
	// when it finishes or is killed, so steady-state Start/finish traffic
	// never touches the heap.
	rjArena     arena[RunningJob]
	runArena    arena[ssRunning]
	idArena     intArena
	pickScratch []int

	// order holds every node id, fastest effective rating first, ties by
	// ascending id. Ratings are fixed, so only a speed change can reorder
	// it: SetNodeSpeed and Reset mark it stale and the next query
	// re-sorts. Down and busy nodes stay in it and are skipped by walks.
	order      []int
	orderStale bool
}

// NewSpaceShared builds a homogeneous dedicated cluster.
func NewSpaceShared(n int, rating float64, cfg Config) (*SpaceShared, error) {
	ratings := make([]float64, n)
	for i := range ratings {
		ratings[i] = rating
	}
	return NewSpaceSharedHetero(ratings, cfg)
}

// NewSpaceSharedHetero builds a dedicated cluster with per-node ratings.
func NewSpaceSharedHetero(ratings []float64, cfg Config) (*SpaceShared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ratings) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	for i, r := range ratings {
		if r <= 0 {
			return nil, fmt.Errorf("cluster: node %d rating %g, want > 0", i, r)
		}
	}
	speed := make([]float64, len(ratings))
	for i := range speed {
		speed[i] = 1
	}
	c := &SpaceShared{
		cfg:        cfg,
		ratings:    append([]float64(nil), ratings...),
		busy:       make([]bool, len(ratings)),
		down:       make([]bool, len(ratings)),
		speed:      speed,
		free:       len(ratings),
		order:      make([]int, len(ratings)),
		orderStale: true,
	}
	for i := range c.order {
		c.order[i] = i
	}
	return c, nil
}

// Reset returns the cluster to its freshly constructed state in place:
// all nodes idle, up and at nominal speed, counters zero, arenas rewound.
// Callbacks are left installed. Every *RunningJob handed out before the
// Reset is invalidated — its storage will be reused.
//
// Reset must run AFTER the owning engine's Reset (or on an idle engine):
// pending completion-event references are dropped without cancelling them.
func (c *SpaceShared) Reset() {
	for i := range c.busy {
		c.busy[i] = false
		c.down[i] = false
		if c.speed[i] != 1 {
			c.speed[i] = 1
			c.orderStale = true
		}
	}
	c.free = len(c.ratings)
	c.running, c.killed = 0, 0
	for i := range c.runs {
		c.runs[i] = nil
	}
	c.runs = c.runs[:0]
	c.rjArena.reset()
	c.runArena.reset()
}

// Len returns the number of nodes.
func (c *SpaceShared) Len() int { return len(c.ratings) }

// FreeCount returns the number of idle, up nodes.
func (c *SpaceShared) FreeCount() int { return c.free }

// Running returns the number of executing jobs.
func (c *SpaceShared) Running() int { return c.running }

// Killed returns the number of jobs torn down by node crashes so far.
func (c *SpaceShared) Killed() int { return c.killed }

// UpNodes returns the number of nodes currently up.
func (c *SpaceShared) UpNodes() int {
	up := 0
	for _, d := range c.down {
		if !d {
			up++
		}
	}
	return up
}

// NodeDown reports whether node id is currently crashed.
func (c *SpaceShared) NodeDown(id int) bool { return c.down[id] }

// effRating returns node id's effective rating: its SPEC rating scaled by
// the current speed factor. With speed 1 the multiplication is exact, so
// the no-fault model is bit-identical to the pre-fault one.
func (c *SpaceShared) effRating(id int) float64 {
	return c.ratings[id] * c.speed[id]
}

// RuntimeOn returns the dedicated runtime of refSeconds of work on the
// fastest numproc idle nodes, without starting anything — what an EDF
// admission test needs to decide whether a deadline is still reachable.
// Returns 0 and false when fewer than numproc nodes are idle.
func (c *SpaceShared) RuntimeOn(refSeconds float64, numproc int) (float64, bool) {
	ids := c.pickFree(numproc)
	if ids == nil {
		return 0, false
	}
	return c.gangRuntime(refSeconds, ids), true
}

// BestPossibleRuntime returns the dedicated runtime on the fastest numproc
// up nodes regardless of their current occupancy — the most optimistic
// finish a queued job could hope for. The gang's slowest member is the
// numproc-th up node in speed order.
func (c *SpaceShared) BestPossibleRuntime(refSeconds float64, numproc int) (float64, bool) {
	for _, id := range c.speedOrder() {
		if c.down[id] {
			continue
		}
		if numproc--; numproc == 0 {
			return refSeconds * c.cfg.RefRating / c.effRating(id), true
		}
	}
	return 0, false
}

// speedOrder returns order, re-sorting it first if a speed changed since
// the last sort.
func (c *SpaceShared) speedOrder() []int {
	if c.orderStale {
		slices.SortFunc(c.order, func(a, b int) int {
			if ra, rb := c.effRating(a), c.effRating(b); ra != rb {
				return cmp.Compare(rb, ra)
			}
			return a - b
		})
		c.orderStale = false
	}
	return c.order
}

// Start runs the job on the fastest numproc idle nodes. The caller must
// have performed admission; Start fails only on resource shortage or bad
// arguments.
func (c *SpaceShared) Start(e *sim.Engine, job workload.Job, estimate float64) (*RunningJob, error) {
	if estimate <= 0 {
		return nil, fmt.Errorf("cluster: job %d estimate %g, want > 0", job.ID, estimate)
	}
	ids := c.pickFree(job.NumProc)
	if ids == nil {
		return nil, fmt.Errorf("cluster: job %d needs %d nodes, only %d free", job.ID, job.NumProc, c.free)
	}
	for _, id := range ids {
		c.busy[id] = true
	}
	c.free -= len(ids)
	c.running++
	rj := c.rjArena.alloc()
	nodeIDs := c.idArena.fitIDs(rj.NodeIDs, ids)
	*rj = RunningJob{
		Job:      job,
		Estimate: estimate,
		Start:    e.Now(),
		NodeIDs:  nodeIDs,
	}
	r := c.runArena.alloc()
	h := r.h // survives the arena slot's previous life; nil on first use
	*r = ssRunning{rj: rj, c: c, remaining: job.Runtime, estRemaining: estimate, lastT: e.Now()}
	if h == nil {
		h = r.fire
	}
	r.h = h
	c.runs = append(c.runs, r)
	duration := c.gangRuntime(job.Runtime, rj.NodeIDs)
	r.ev = e.After(duration, sim.PriorityCompletion, h)
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindStart, Job: job.ID, Node: rj.NodeIDs[0], Value: estimate})
	}
	return rj, nil
}

// finish completes a run: release its nodes, retire the tracking entry and
// fire OnJobDone.
func (c *SpaceShared) finish(e *sim.Engine, r *ssRunning) {
	rj := r.rj
	r.ev = nil // the event has fired; the engine recycles it
	for _, id := range rj.NodeIDs {
		c.busy[id] = false
	}
	c.free += len(rj.NodeIDs)
	c.running--
	c.dropRun(r)
	c.runArena.release(r)
	rj.done = true
	rj.Finish = e.Now()
	if c.Trace != nil || c.Metrics != nil {
		c.emitFinish(rj)
	}
	if c.OnJobDone != nil {
		c.OnJobDone(e, rj)
	}
	c.rjArena.release(rj)
}

// emitFinish reports a completed job to the observability hooks, with the
// same deadline tolerance as RunningJob.DeadlineMet.
func (c *SpaceShared) emitFinish(rj *RunningJob) {
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

func (c *SpaceShared) dropRun(r *ssRunning) {
	for i, a := range c.runs {
		if a == r {
			copy(c.runs[i:], c.runs[i+1:])
			c.runs[len(c.runs)-1] = nil
			c.runs = c.runs[:len(c.runs)-1]
			return
		}
	}
}

// advanceRun accrues a run's progress up to now at its gang's current
// effective pace. Must be called before any speed change that affects the
// gang.
func (c *SpaceShared) advanceRun(r *ssRunning, now float64) {
	dt := now - r.lastT
	if dt > 0 {
		pace := c.gangPace(r.rj.NodeIDs)
		r.remaining -= dt * pace
		r.estRemaining -= dt * pace
	}
	r.lastT = now
}

// gangPace returns reference seconds of work served per wall second on the
// given gang: effective slowest rating over the reference rating.
func (c *SpaceShared) gangPace(ids []int) float64 {
	slowest := c.effRating(ids[0])
	for _, id := range ids[1:] {
		if r := c.effRating(id); r < slowest {
			slowest = r
		}
	}
	return slowest / c.cfg.RefRating
}

// SetNodeSpeed re-times node id at a new effective-rate multiplier: any
// gang spanning the node accrues progress at the old pace, then its
// completion event is rescheduled at the new one. factor must be positive;
// 1 restores nominal speed.
func (c *SpaceShared) SetNodeSpeed(e *sim.Engine, id int, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("cluster: node %d speed factor %g, want > 0", id, factor))
	}
	if factor == c.speed[id] {
		return
	}
	if c.Trace != nil {
		kind := obs.KindNodeSlow
		if factor == 1 {
			kind = obs.KindNodeNominal
		}
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: kind, Job: -1, Node: id, Value: factor})
	}
	if c.Metrics != nil && factor != 1 {
		c.Metrics.NodeSlowdowns.Inc()
	}
	c.orderStale = true
	now := e.Now()
	affected := make([]*ssRunning, 0, 1)
	for _, r := range c.runs {
		if gangContains(r.rj.NodeIDs, id) {
			c.advanceRun(r, now)
			affected = append(affected, r)
		}
	}
	c.speed[id] = factor
	for _, r := range affected {
		duration := c.gangRuntime(math.Max(0, r.remaining), r.rj.NodeIDs)
		e.Retime(r.ev, now+duration)
	}
}

// SetNodeDown crashes (down=true) or recovers (down=false) node id. A
// crash kills the job occupying the node, if any: its completion event is
// cancelled, its surviving nodes are released, and OnJobKilled fires with
// the remaining real/believed work in reference seconds. Recovery returns
// the node to the free pool and fires OnNodeUp. Both directions are
// idempotent. It returns the number of jobs killed (0 or 1).
func (c *SpaceShared) SetNodeDown(e *sim.Engine, id int, down bool) int {
	if down == c.down[id] {
		return 0
	}
	if !down {
		c.down[id] = false
		c.free++
		if c.Trace != nil {
			c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindNodeUp, Job: -1, Node: id})
		}
		if c.Metrics != nil {
			c.Metrics.NodeRepairs.Inc()
		}
		if c.OnNodeUp != nil {
			c.OnNodeUp(e, id)
		}
		return 0
	}
	c.down[id] = true
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindNodeDown, Job: -1, Node: id})
	}
	if c.Metrics != nil {
		c.Metrics.NodeCrashes.Inc()
	}
	if !c.busy[id] {
		c.free--
		return 0
	}
	// Find the gang occupying the node and tear it down.
	var victim *ssRunning
	for _, r := range c.runs {
		if gangContains(r.rj.NodeIDs, id) {
			victim = r
			break
		}
	}
	if victim == nil {
		panic(fmt.Sprintf("cluster: node %d busy with no running job", id))
	}
	c.advanceRun(victim, e.Now())
	victim.ev.Cancel()
	victim.ev = nil
	rj := victim.rj
	for _, nid := range rj.NodeIDs {
		c.busy[nid] = false
		if nid != id {
			c.free++ // the crashed node itself stays unavailable
		}
	}
	c.running--
	c.killed++
	c.dropRun(victim)
	kj := KilledJob{
		Job:               rj,
		RemainingRuntime:  math.Max(0, victim.remaining),
		RemainingEstimate: math.Max(1e-6, victim.estRemaining),
	}
	c.runArena.release(victim)
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindKill, Job: rj.Job.ID, Node: id, Value: kj.RemainingRuntime})
	}
	if c.Metrics != nil {
		c.Metrics.Kills.Inc()
	}
	if c.OnJobKilled != nil {
		c.OnJobKilled(e, kj)
	}
	c.rjArena.release(rj)
	return 1
}

// CheckInvariants validates the cluster's structural invariants: the free
// count matches the idle-up node census, running matches the tracked run
// set, no gang spans a down node, every gang node is marked busy, speeds
// are positive, and remaining work is non-negative (modulo float noise).
func (c *SpaceShared) CheckInvariants() error {
	idle := 0
	for i := range c.ratings {
		if !c.busy[i] && !c.down[i] {
			idle++
		}
		if c.speed[i] <= 0 {
			return fmt.Errorf("cluster: node %d speed %g, want > 0", i, c.speed[i])
		}
	}
	if idle != c.free {
		return fmt.Errorf("cluster: free count %d, census says %d", c.free, idle)
	}
	if c.running != len(c.runs) {
		return fmt.Errorf("cluster: running count %d, tracked runs %d", c.running, len(c.runs))
	}
	for _, r := range c.runs {
		if r.remaining < -1e-6 {
			return fmt.Errorf("cluster: job %d remaining work %g < 0", r.rj.Job.ID, r.remaining)
		}
		for _, id := range r.rj.NodeIDs {
			if c.down[id] {
				return fmt.Errorf("cluster: job %d allocated on down node %d", r.rj.Job.ID, id)
			}
			if !c.busy[id] {
				return fmt.Errorf("cluster: job %d on node %d not marked busy", r.rj.Job.ID, id)
			}
		}
	}
	return nil
}

func gangContains(ids []int, id int) bool {
	for _, n := range ids {
		if n == id {
			return true
		}
	}
	return false
}

// pickFree returns the ids of the fastest numproc idle up nodes, fastest
// first, ties by ascending id, or nil. The returned slice aliases
// pickScratch and is only valid until the next pickFree call; Start
// copies it into the job's node-ID storage.
func (c *SpaceShared) pickFree(numproc int) []int {
	if numproc <= 0 || numproc > c.free {
		return nil
	}
	ids := c.pickScratch[:0]
	for _, id := range c.speedOrder() {
		if !c.busy[id] && !c.down[id] {
			if ids = append(ids, id); len(ids) == numproc {
				break
			}
		}
	}
	c.pickScratch = ids
	return ids
}

// gangRuntime is the dedicated runtime of refSeconds of reference work on
// the given nodes: the gang advances at its slowest member's effective
// pace.
func (c *SpaceShared) gangRuntime(refSeconds float64, ids []int) float64 {
	slowest := c.effRating(ids[0])
	for _, id := range ids[1:] {
		if r := c.effRating(id); r < slowest {
			slowest = r
		}
	}
	return refSeconds * c.cfg.RefRating / slowest
}

// MinRuntime returns the job's dedicated runtime on its allocated gang at
// nominal speed, the denominator of the slowdown metric.
func (c *SpaceShared) MinRuntime(rj *RunningJob) float64 {
	slowest := c.ratings[rj.NodeIDs[0]]
	for _, id := range rj.NodeIDs[1:] {
		if c.ratings[id] < slowest {
			slowest = c.ratings[id]
		}
	}
	return rj.Job.Runtime * c.cfg.RefRating / slowest
}

// EstimatedFinish returns when the scheduler believes the job will
// complete: its start time plus its estimated runtime on its gang. Used by
// backfilling and slack-based admission policies that plan ahead from
// estimates.
func (c *SpaceShared) EstimatedFinish(rj *RunningJob) float64 {
	return rj.Start + c.gangRuntime(rj.Estimate, rj.NodeIDs)
}

// RunningJobs returns the currently executing jobs in start order; the
// slice is freshly allocated.
func (c *SpaceShared) RunningJobs() []*RunningJob {
	out := make([]*RunningJob, 0, len(c.runs))
	for _, r := range c.runs {
		out = append(out, r.rj)
	}
	return out
}
