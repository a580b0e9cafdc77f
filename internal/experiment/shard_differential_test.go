package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"clustersched/internal/fault"
)

// TestShardedRunMatchesSequentialAtPaperScale is the tentpole differential
// for the sharded engine: paper-scale runs (128 nodes, default workload)
// with faults and the invariant checker riding along must produce
// byte-identical summaries at every shard count. The cluster size sits at
// the parallel-admission threshold, so this also proves the fanned-out
// node scan decision-identical to the sequential walk.
func TestShardedRunMatchesSequentialAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential sims in -short mode")
	}
	base := DefaultBase()
	base.CheckInvariants = true
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []PolicyKind{Libra, LibraRisk} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{
				Policy:             kind,
				ArrivalDelayFactor: 1,
				InaccuracyPct:      100,
				Deadline:           base.Deadline,
				Faults: fault.Config{
					Seed:           9,
					MTBF:           2e6,
					MTTR:           3600,
					CorrelatedMTBF: 4e6,
					CorrelatedSize: 16,
				},
			}
			ref, err := Run(base, jobs, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4, 8} {
				b := base
				b.Shards = k
				got, err := Run(b, jobs, spec)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got != ref {
					t.Errorf("shards=%d: summaries diverge\nsharded    %+v\nsequential %+v", k, got, ref)
				}
			}
		})
	}
}

// TestShardedFiguresByteIdentical regenerates the full paper figure set
// (reduced workload) on the sharded engine at K = 2, 4, 8 and requires
// exact equality with the sequential figures — every panel, series and
// point, including the monitor-driven ones.
func TestShardedFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration sims in -short mode")
	}
	base := DefaultBase()
	base.Generator.Jobs = 500
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := allFiguresFrom(base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			t.Parallel()
			b := base
			b.Shards = k
			figs, err := allFiguresFrom(b, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(figs, ref) {
				t.Fatal("sharded figures diverge from sequential")
			}
		})
	}
}

// TestShardedChaosSweepByteIdentical runs the fault-grid sweep on the
// sharded engine: crash, straggler and correlated-outage processes all
// active across the failure-rate grid, compared point by point against
// the sequential sweep.
func TestShardedChaosSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep sims in -short mode")
	}
	base := DefaultBase()
	base.Generator.Jobs = 400
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	ref := ChaosSweepContext(context.Background(), base, jobs)
	b := base
	b.Shards = 4
	got := ChaosSweepContext(context.Background(), b, jobs)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("sharded chaos sweep diverges from sequential")
	}
}

// TestShardedCorrelatedOutageAcrossShardBoundary pins the shard-boundary
// fault case: a tiny 8-node cluster split into two shards with outages
// sized to span the node 3 | node 4 boundary. The outage teardown and the
// resubmissions it triggers must land identically however the victims are
// partitioned — and the config is tuned so kills actually occur, or the
// test would pass vacuously.
func TestShardedCorrelatedOutageAcrossShardBoundary(t *testing.T) {
	base := DefaultBase()
	base.Nodes = 8
	base.Generator.Jobs = 300
	base.Generator.MaxProcs = 8
	base.CheckInvariants = true
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Policy:             LibraRisk,
		ArrivalDelayFactor: 1,
		InaccuracyPct:      100,
		Deadline:           base.Deadline,
		Faults: fault.Config{
			Seed:           3,
			CorrelatedMTBF: 4e5,
			CorrelatedSize: 4, // half the cluster: every outage crosses or abuts the boundary
			CorrelatedMTTR: 7200,
		},
	}
	ref, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Killed == 0 {
		t.Fatal("fault config produced no kills; boundary case not exercised")
	}
	b := base
	b.Shards = 2
	got, err := Run(b, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("summaries diverge across the shard boundary\nsharded    %+v\nsequential %+v", got, ref)
	}
}

// TestShardedSameTimestampCompletions drives many identical jobs so
// completions land at exactly equal times in different shards; the
// deferred-completion merge must reproduce the sequential ordering.
func TestShardedSameTimestampCompletions(t *testing.T) {
	base := DefaultBase()
	base.Nodes = 16
	base.Generator.Jobs = 200
	base.Generator.MaxProcs = 16
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the workload onto a handful of runtimes and arrival
	// instants so same-timestamp completions across shards are common.
	for i := range jobs {
		jobs[i].Submit = float64(int(jobs[i].Submit/5000)) * 5000
		jobs[i].Runtime = float64(1+i%3) * 4000
		jobs[i].TraceEstimate = jobs[i].Runtime
	}
	spec := RunSpec{Policy: Libra, ArrivalDelayFactor: 1, Deadline: base.Deadline}
	ref, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		b := base
		b.Shards = k
		got, err := Run(b, jobs, spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if got != ref {
			t.Errorf("shards=%d: same-timestamp completions diverge\nsharded    %+v\nsequential %+v", k, got, ref)
		}
	}
}

// TestShardedRunCancellation delivers an already-expired context to a
// sharded run: the barrier loop must surface the cancellation as a clean
// wrapped error rather than deadlock the worker pool or panic mid-phase.
func TestShardedRunCancellation(t *testing.T) {
	base := DefaultBase()
	base.Shards = 4
	base.Generator.Jobs = 200
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = runInstrumented(ctx, base, jobs, RunSpec{Policy: LibraRisk, Deadline: base.Deadline}, 0, nil, -1)
	if err == nil {
		t.Fatal("canceled sharded run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestShardCountBeyondNodesClamps runs with more shards than nodes; the
// count clamps to the node count and the result stays identical.
func TestShardCountBeyondNodesClamps(t *testing.T) {
	base := DefaultBase()
	base.Nodes = 4
	base.Generator.Jobs = 120
	base.Generator.MaxProcs = 4
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Policy: Libra, Deadline: base.Deadline}
	ref, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Shards = 64
	got, err := Run(b, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("clamped shard count diverges\nsharded    %+v\nsequential %+v", got, ref)
	}
}

// TestShardedEqualKeyArrivalBurstsAtShardEdges pushes the equal-key
// batching path hard: every job arrives at one of a handful of identical
// (time, priority) keys, so the global calendar holds long equal-key
// arrival runs that the barrier loop steps behind a single shard phase,
// while the collapsed runtimes land same-instant completions on nodes
// either side of every shard boundary. The monitor rides along so its
// pool-driven sampling is differentially checked in the same run.
func TestShardedEqualKeyArrivalBurstsAtShardEdges(t *testing.T) {
	base := DefaultBase()
	base.Nodes = 16
	base.Generator.Jobs = 240
	base.Generator.MaxProcs = 4
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	// Three arrival instants (contiguous blocks, keeping the submit order
	// non-decreasing), three runtimes: maximal key collision.
	block := len(jobs)/3 + 1
	for i := range jobs {
		jobs[i].Submit = float64(i/block) * 10000
		jobs[i].Runtime = float64(1+i%3) * 3000
		jobs[i].TraceEstimate = jobs[i].Runtime
		jobs[i].NumProc = 1 + i%2
	}
	spec := RunSpec{Policy: LibraRisk, ArrivalDelayFactor: 1, Deadline: base.Deadline}
	refSum, refMon, err := runInstrumented(context.Background(), base, jobs, spec, 1800, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8, 16} {
		b := base
		b.Shards = k
		got, mon, err := runInstrumented(context.Background(), b, jobs, spec, 1800, nil, -1)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if got != refSum {
			t.Errorf("shards=%d: equal-key burst summaries diverge\nsharded    %+v\nsequential %+v", k, got, refSum)
		}
		if !reflect.DeepEqual(mon.Samples(), refMon.Samples()) {
			t.Errorf("shards=%d: monitor samples diverge under equal-key bursts", k)
		}
	}
}
