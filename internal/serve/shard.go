package serve

// Sharded serving: with Config.Shards > 1 the server attaches
// space-partitioned shard engines (core.AttachShards) to the serving
// cluster, so advancing virtual time — firing every believed completion
// at or before an operation's timestamp — fans out across a
// sim.ShardPool instead of walking one calendar on the apply goroutine:
// applyLocked calls cluster.TimeShared.AdvanceShards, the same barrier
// loop the batch simulator runs. The same pool drives the
// Libra/LibraRisk admission node scan.
//
// Ordering is untouched: the apply worker still owns every mutation and
// applies operations strictly in queue order; a shard phase only runs
// node-local update events, and the completions they produce are parked
// and applied at the barrier in (completion time, job id) order — the
// exact order the sequential engine fires them in (see
// cluster.EndShardPhase and DESIGN.md "Sharded execution"). The audit
// stream, the drain checkpoint and a WAL replay are therefore
// byte-identical to the single-engine path, which the differential
// tests in shard_test.go assert.

import "math"

// peekNextLocked returns the earliest pending event time across the
// global and shard calendars — the next believed completion, feeding
// the lock-free Retry-After cache. NaN when nothing is pending.
func (s *Server) peekNextLocked() float64 {
	next := math.NaN()
	if t, _, ok := s.eng.PeekNext(); ok {
		next = t
	}
	for _, se := range s.shardEngines {
		if t, _, ok := se.PeekNext(); ok && (math.IsNaN(next) || t < next) {
			next = t
		}
	}
	return next
}
