package core

import (
	"context"
	"fmt"
	"math"

	"clustersched/internal/cluster"
	"clustersched/internal/metrics"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// RunSimulationSharded is the space-partitioned counterpart of
// RunSimulationReusing: the global engine e carries only the cross-node
// events (arrivals, faults, monitor ticks), while node update events run
// on the cluster's attached shard engines, advanced concurrently between
// consecutive global events by cluster.TimeShared.AdvanceShards — the one
// barrier loop, here run to completion (T = +Inf). See DESIGN.md "Sharded
// execution".
//
// pool and the attached shard engines come from AttachShards.
func RunSimulationSharded(ctx context.Context, e *sim.Engine, c *cluster.TimeShared, pool *sim.ShardPool, p Policy, rec *metrics.Recorder, jobs []workload.Job, inaccuracyPct float64, d *ArrivalDriver) error {
	if err := workload.ValidateAll(jobs); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	d.begin(e, p, jobs, inaccuracyPct)
	if e.MaxEvents == 0 {
		e.MaxEvents = defaultEventBudget
	}
	shards := c.ShardEngines()
	for _, se := range shards {
		if se.MaxEvents == 0 {
			se.MaxEvents = defaultEventBudget
		}
	}
	if err := c.AdvanceShards(ctx, e, pool, math.Inf(1), nil); err != nil {
		return fmt.Errorf("core: simulation aborted: %w", err)
	}
	// Align the global clock with the latest shard event, matching the
	// sequential engine's final Now() (its last event is the last
	// completion when no monitor tick outlives it).
	for _, se := range shards {
		if se.Now() > e.Now() {
			e.AdvanceTo(se.Now())
		}
	}
	rec.Flush()
	return nil
}

// AttachShards switches a time-shared run to sharded execution: it clamps
// k to the node count, attaches k shard engines to ts, starts the phase
// pool, hands the pool to the policy's admission scan (AdmitParallel) and
// points mon, when non-nil, at the shard backlog and the pool. engines,
// when non-nil, is a caller-owned cache of shard engines reused run over
// run (grown to k, each Reset); nil builds fresh ones.
//
// Below two shards, or with ts nil (space-shared policies stay sequential:
// every completion there is a dispatch decision, i.e. a barrier per
// event), nothing is attached and the pool is nil. The returned detach
// func undoes everything and is never nil.
func AttachShards(ts *cluster.TimeShared, k int, engines *[]*sim.Engine, p Policy, mon *Monitor) (*sim.ShardPool, func(), error) {
	if ts == nil || k < 2 || ts.Len() < 2 {
		return nil, func() {}, nil
	}
	k = min(k, ts.Len())
	var local []*sim.Engine
	if engines == nil {
		engines = &local
	}
	for len(*engines) < k {
		*engines = append(*engines, sim.NewEngine())
	}
	for _, se := range (*engines)[:k] {
		se.Reset()
	}
	if err := ts.AttachShards((*engines)[:k]); err != nil {
		return nil, func() {}, fmt.Errorf("core: %w", err)
	}
	pool := sim.NewShardPool(k)
	ap, _ := p.(AdmitParallel)
	if ap != nil {
		ap.SetAdmitPool(pool)
	}
	if mon != nil {
		mon.PendingExtra = ts.ShardsPending
		mon.Pool = pool
	}
	return pool, func() {
		if ap != nil {
			ap.SetAdmitPool(nil)
		}
		pool.Close()
		ts.DetachShards()
	}, nil
}

// AdmitParallel is implemented by policies whose admission node scan can
// fan out across the shard pool at barrier time (Libra and LibraRisk).
// AttachShards hands them the pool for sharded runs and its detach func
// takes it away (nil) afterwards.
type AdmitParallel interface {
	SetAdmitPool(pool *sim.ShardPool)
}
