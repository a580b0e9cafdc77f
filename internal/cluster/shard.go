package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"clustersched/internal/sim"
)

// Sharded execution support: AttachShards partitions a TimeShared cluster's
// nodes across K shard engines so their update events (the only events
// nodes ever schedule) can be processed concurrently between admission
// barriers. Nodes never interact with each other — every cross-node effect
// flows through the policy's admit decision or a fault event, both of which
// run on the global engine at a barrier — so partitioning by node is exact,
// not an approximation.
//
// The one piece of shared state a node event touches is job-level gang
// accounting (RunningJob countdown, the running counter, observability,
// OnJobDone). During a phase those completions are parked per shard and
// applied by EndShardPhase in (completion time, job id) order, which is
// exactly the order the sequential engine would have fired them in — see
// DESIGN.md "Sharded execution" for the determinism argument.

// deferredDone is one slice completion parked during a shard phase.
type deferredDone struct {
	time float64
	sl   *slice
}

// shardRuntime is the cluster-side state of an attached sharding.
type shardRuntime struct {
	engines []*sim.Engine
	// index maps a shard engine back to its slot, so sliceDone can route a
	// deferral without widening the node callback signature.
	index map[*sim.Engine]int
	// inPhase is true while shard engines run concurrently. It is written
	// by the coordinator strictly before and after the pool barrier (whose
	// atomics publish it), never during a phase.
	inPhase bool
	// deferred collects parked completions, one buffer per shard so phase
	// workers never share a slice.
	deferred [][]deferredDone
	// merged is the coordinator's scratch for the barrier-time sort.
	merged []deferredDone
	// busy/errs are AdvanceShards' per-phase scratch and (t, pr) the limit
	// of the phase in flight, read by runShard (the bound-once method
	// value of run) — fields rather than closure captures so a phase
	// allocates nothing.
	busy     []bool
	errs     []error
	t        float64
	pr       sim.Priority
	runShard func(w int)
}

// AttachShards installs K shard engines on the cluster, partitioning nodes
// into contiguous ranges: node i belongs to shard i*K/n. Contiguity keeps
// each shard's slice of the node array cache-dense, and the rule is exact
// for any n and K with near-equal sizes. Every node's update events are
// scheduled on its shard engine from here on; Reset or DetachShards
// reverts to sequential mode. The engines must be distinct, freshly reset
// (or idle), and outnumbered by nodes at most K = n.
func (c *TimeShared) AttachShards(engines []*sim.Engine) error {
	k := len(engines)
	if k < 1 {
		return fmt.Errorf("cluster: AttachShards with no engines")
	}
	if k > len(c.nodes) {
		return fmt.Errorf("cluster: %d shards for %d nodes", k, len(c.nodes))
	}
	if c.shards != nil {
		return fmt.Errorf("cluster: shards already attached")
	}
	sr := &shardRuntime{
		engines:  slices.Clone(engines),
		index:    make(map[*sim.Engine]int, k),
		deferred: make([][]deferredDone, k),
		busy:     make([]bool, k),
		errs:     make([]error, k),
	}
	sr.runShard = sr.run
	for i, e := range engines {
		if e == nil {
			return fmt.Errorf("cluster: shard engine %d is nil", i)
		}
		if _, dup := sr.index[e]; dup {
			return fmt.Errorf("cluster: shard engine %d duplicated", i)
		}
		sr.index[e] = i
	}
	n := len(c.nodes)
	for i, node := range c.nodes {
		s := i * k / n
		node.eng = engines[s]
		node.shard = s
	}
	c.shards = sr
	return nil
}

// DetachShards reverts the cluster to sequential single-engine mode. Any
// still-pending events on the shard engines remain the caller's to drain
// or reset; parked completions that were never applied are dropped.
func (c *TimeShared) DetachShards() {
	if c.shards == nil {
		return
	}
	for _, node := range c.nodes {
		node.eng = nil
		node.shard = 0
	}
	c.shards = nil
}

// ShardEngines returns the attached shard engines in shard order, or nil
// in sequential mode. The returned slice is the runtime's own; callers
// must not mutate it.
func (c *TimeShared) ShardEngines() []*sim.Engine {
	if c.shards == nil {
		return nil
	}
	return c.shards.engines
}

// ShardOfNode returns the shard index owning node id (0 when detached).
func (c *TimeShared) ShardOfNode(id int) int { return c.nodes[id].shard }

// BeginShardPhase marks the start of a concurrent shard phase: slice
// completions are parked instead of finished until EndShardPhase. Must be
// called by the coordinator with no phase in flight.
func (c *TimeShared) BeginShardPhase() {
	if c.shards == nil {
		panic("cluster: BeginShardPhase without attached shards")
	}
	c.shards.inPhase = true
}

// EndShardPhase closes a concurrent phase and applies every parked slice
// completion on the coordinator, in ascending (completion time, job id)
// order — the exact order the sequential engine fires them in (two
// distinct jobs completing at the same instant have measure zero under the
// continuous workload distributions; same-job ties are commutative). e is
// the global engine, handed to completion callbacks exactly as the
// sequential path would.
func (c *TimeShared) EndShardPhase(e *sim.Engine) {
	sr := c.shards
	if sr == nil || !sr.inPhase {
		panic("cluster: EndShardPhase without a phase in flight")
	}
	sr.inPhase = false
	merged := sr.merged[:0]
	for s, buf := range sr.deferred {
		merged = append(merged, buf...)
		for i := range buf {
			buf[i].sl = nil
		}
		sr.deferred[s] = buf[:0]
	}
	// Stable sort so the (probability-zero) cross-job time-and-id tie
	// still resolves deterministically, by shard index.
	slices.SortStableFunc(merged, func(a, b deferredDone) int {
		switch {
		case a.time < b.time:
			return -1
		case a.time > b.time:
			return 1
		case a.sl.job.Job.ID < b.sl.job.Job.ID:
			return -1
		case a.sl.job.Job.ID > b.sl.job.Job.ID:
			return 1
		}
		return 0
	})
	for _, d := range merged {
		c.finishSlice(e, d.time, d.sl)
	}
	for i := range merged {
		merged[i].sl = nil
	}
	sr.merged = merged[:0]
}

// throughHorizon is the priority that turns a (T, priority) phase limit
// into "everything at or before T": it sorts above every real priority.
const throughHorizon = sim.Priority(math.MaxInt)

// ctxCheckBarrierMask mirrors the engine's ctxCheckMask at barrier
// granularity: the cancellation poll runs every 64 barriers.
const ctxCheckBarrierMask = 63

// AdvanceShards is the barrier loop of sharded execution, shared by the
// batch driver (T = +Inf) and the serving apply path (T = the op's
// virtual time): it fires every event at or before T across the global
// engine and the shard engines, in exactly the sequential engine's order.
//
// Peek the next global event's (time, priority) key, run every shard up
// to (strictly below) that key in parallel on pool, apply the parked
// slice completions, then process the global event — so every admit
// decision, fault and monitor sample sees exactly the cluster state the
// sequential engine would have shown it. Once no global event remains
// within T the shards drain through T inclusive. See DESIGN.md "Sharded
// execution".
//
// pool.Workers() must equal the shard count. onPhase, when non-nil, is
// called after every phase that ran with its wall time. The global
// engine's horizon is left at T; its clock is only moved by the events
// it fires.
func (c *TimeShared) AdvanceShards(ctx context.Context, global *sim.Engine, pool *sim.ShardPool, T float64, onPhase func(time.Duration)) error {
	sr := c.shards
	if sr == nil {
		return fmt.Errorf("cluster: AdvanceShards without attached shard engines")
	}
	if pool == nil || pool.Workers() != len(sr.engines) {
		return fmt.Errorf("cluster: shard pool size does not match %d shards", len(sr.engines))
	}
	global.SetHorizon(T)
	done := ctx.Done()
	for barrier := uint64(0); ; barrier++ {
		if done != nil && barrier&ctxCheckBarrierMask == 0 {
			select {
			case <-done:
				return fmt.Errorf("cluster: sharded advance canceled at t=%.6g after %d barriers: %w",
					global.Now(), barrier, context.Cause(ctx))
			default:
			}
		}
		t, pr, ok := global.PeekNext()
		if !ok || t > T {
			break
		}
		if _, err := c.shardPhase(global, pool, t, pr, onPhase); err != nil {
			return err
		}
		// Step every consecutive global event sharing this exact (t, pr)
		// key behind the one phase. A handler can only schedule strictly
		// later work — node updates carry a forward-progress floor and
		// arrival chains re-arm at or after their own key — so no shard
		// can have gained an event below the key between equal-key steps:
		// the phase the unbatched loop would run for each of them is
		// provably empty. Equal-key events fire in seq order either way,
		// so the batched stream is byte-identical while SWF workloads'
		// same-second arrival runs pay one barrier instead of one each.
		for {
			if _, err := global.Step(); err != nil {
				return fmt.Errorf("cluster: global event at t=%.6g: %w", t, err)
			}
			nt, npr, nok := global.PeekNext()
			if !nok || nt != t || npr != pr {
				break
			}
		}
	}
	// No global event is left within T; whatever the shards still hold at
	// or before it (node events of jobs outliving the last arrival, in the
	// batch case) runs now. Completions applied at the barrier schedule no
	// node work of their own, so one phase suffices; re-peeking guards
	// against a model that proves otherwise.
	for {
		ran, err := c.shardPhase(global, pool, T, throughHorizon, onPhase)
		if err != nil || !ran {
			return err
		}
	}
}

// shardPhase runs one barrier phase: every shard with an event strictly
// below the (t, pr) key drains up to it, then the parked completions are
// applied. It reports whether any shard had work. The coordinator peeks
// every shard first: phases where no shard is busy skip the pool barrier
// entirely, and a single busy shard runs inline on the coordinator —
// both common under light load, where worker wakeups would otherwise
// dominate.
func (c *TimeShared) shardPhase(global *sim.Engine, pool *sim.ShardPool, t float64, pr sim.Priority, onPhase func(time.Duration)) (bool, error) {
	sr := c.shards
	nbusy, last := 0, -1
	for i, se := range sr.engines {
		st, sp, ok := se.PeekNext()
		sr.busy[i] = ok && (st < t || (st == t && sp < pr))
		if sr.busy[i] {
			nbusy++
			last = i
		}
	}
	if nbusy == 0 {
		return false, nil
	}
	var t0 time.Time
	if onPhase != nil {
		t0 = time.Now()
	}
	sr.t, sr.pr = t, pr
	c.BeginShardPhase()
	if nbusy == 1 {
		sr.run(last)
	} else {
		pool.Run(sr.runShard)
	}
	c.EndShardPhase(global)
	if onPhase != nil {
		onPhase(time.Since(t0))
	}
	for _, err := range sr.errs {
		if err != nil {
			clear(sr.errs)
			return true, fmt.Errorf("cluster: shard phase at t=%.6g: %w", t, err)
		}
	}
	return true, nil
}

// run drains shard w up to the phase limit; idle shards do nothing.
func (sr *shardRuntime) run(w int) {
	if sr.busy[w] {
		se := sr.engines[w]
		se.SetHorizonKey(sr.t, sr.pr)
		sr.errs[w] = se.Run()
	}
}

// ShardsPending sums the live pending events across all shard engines; 0
// when detached. The monitor uses it to decide whether the system has
// drained (see core.Monitor.PendingExtra).
func (c *TimeShared) ShardsPending() int {
	if c.shards == nil {
		return 0
	}
	total := 0
	for _, e := range c.shards.engines {
		total += e.Pending()
	}
	return total
}
