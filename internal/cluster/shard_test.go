package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"clustersched/internal/sim"
)

func shardEngines(k int) []*sim.Engine {
	engines := make([]*sim.Engine, k)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	return engines
}

func TestAttachShardsPartitionIsContiguousAndBalanced(t *testing.T) {
	c, err := NewTimeShared(10, 168, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachShards(shardEngines(4)); err != nil {
		t.Fatal(err)
	}
	defer c.DetachShards()
	// node i -> shard i*k/n: contiguous, monotone, sizes within one.
	counts := make([]int, 4)
	prev := 0
	for i := 0; i < c.Len(); i++ {
		s := c.ShardOfNode(i)
		if s < prev || s >= 4 {
			t.Fatalf("node %d in shard %d after shard %d", i, s, prev)
		}
		if want := i * 4 / 10; s != want {
			t.Fatalf("node %d in shard %d, want %d", i, s, want)
		}
		prev = s
		counts[s]++
	}
	for s, n := range counts {
		if n < 2 || n > 3 {
			t.Fatalf("shard %d holds %d nodes, want 2 or 3", s, n)
		}
	}
	if got := len(c.ShardEngines()); got != 4 {
		t.Fatalf("ShardEngines() = %d engines, want 4", got)
	}
}

func TestAttachShardsValidation(t *testing.T) {
	c, err := NewTimeShared(4, 168, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachShards(nil); err == nil {
		t.Fatal("AttachShards(nil) succeeded")
	}
	if err := c.AttachShards(shardEngines(5)); err == nil {
		t.Fatal("more shards than nodes succeeded")
	}
	if err := c.AttachShards([]*sim.Engine{nil, nil}); err == nil {
		t.Fatal("nil engines succeeded")
	}
	e := sim.NewEngine()
	if err := c.AttachShards([]*sim.Engine{e, e}); err == nil {
		t.Fatal("duplicate engines succeeded")
	}
	if err := c.AttachShards(shardEngines(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachShards(shardEngines(2)); err == nil {
		t.Fatal("double attach succeeded")
	}
	c.DetachShards()
	if err := c.AttachShards(shardEngines(2)); err != nil {
		t.Fatalf("re-attach after detach failed: %v", err)
	}
	c.DetachShards()
}

func TestDetachAndResetClearNodeRouting(t *testing.T) {
	c, err := NewTimeShared(4, 168, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachShards(shardEngines(2)); err != nil {
		t.Fatal(err)
	}
	if c.ShardOfNode(3) != 1 {
		t.Fatalf("node 3 in shard %d, want 1", c.ShardOfNode(3))
	}
	c.DetachShards()
	for i := 0; i < c.Len(); i++ {
		if c.nodes[i].eng != nil || c.nodes[i].shard != 0 {
			t.Fatalf("node %d kept shard routing after detach", i)
		}
	}
	// Reset must also drop an attachment (a fresh run may be sequential).
	if err := c.AttachShards(shardEngines(2)); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.shards != nil {
		t.Fatal("Reset kept the shard runtime")
	}
	for i := 0; i < c.Len(); i++ {
		if c.nodes[i].eng != nil {
			t.Fatalf("node %d kept its shard engine after Reset", i)
		}
	}
}

func TestShardedCompletionsMatchSequential(t *testing.T) {
	// One job per node across a 4-node cluster split into 2 shards;
	// driving the shard engines through a phase + barrier must finish the
	// same jobs at the same times the sequential cluster reports.
	run := func(sharded bool) []float64 {
		e := sim.NewEngine()
		c, err := NewTimeShared(4, 168, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var finishes []float64
		c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) {
			finishes = append(finishes, rj.Finish)
		}
		if sharded {
			if err := c.AttachShards(shardEngines(2)); err != nil {
				t.Fatal(err)
			}
			defer c.DetachShards()
		}
		for i := 0; i < 4; i++ {
			j := job(i+1, 0, float64(1000*(i+1)), 1e9, 1)
			if _, err := c.Submit(e, j, j.Runtime, []int{i}); err != nil {
				t.Fatal(err)
			}
		}
		if sharded {
			c.BeginShardPhase()
			for _, se := range c.ShardEngines() {
				se.SetHorizon(1e18)
				if err := se.Run(); err != nil {
					t.Fatal(err)
				}
			}
			c.EndShardPhase(e)
			if c.ShardsPending() != 0 {
				t.Fatalf("ShardsPending = %d after drain", c.ShardsPending())
			}
		} else if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return finishes
	}
	seq := run(false)
	sh := run(true)
	if len(seq) != 4 || len(sh) != 4 {
		t.Fatalf("finishes: sequential %d, sharded %d, want 4", len(seq), len(sh))
	}
	for i := range seq {
		if seq[i] != sh[i] {
			t.Fatalf("finish %d: sequential %g, sharded %g", i, seq[i], sh[i])
		}
	}
}

// TestAdvanceShardsBoundedHorizon advances a sharded cluster to a finite
// T with global events strictly below T, exactly at T — one of them on
// the very (time, priority) key of a shard completion — and above T, and
// requires the event order, every node's state version and the clocks to
// match the sequential engine run to the same horizon. Batch runs only
// ever use T = +Inf and the serving path schedules nothing on the global
// calendar, so this is the one place the combination is exercised.
func TestAdvanceShardsBoundedHorizon(t *testing.T) {
	const nodes, initial = 8, 24
	arrivals := []float64{300, 700, 1100, 1500, 1900, 2300, 2700, 3100, 3500, 3900}

	type result struct {
		log      []string
		finishes []float64
		versions []uint64
		now      float64
		running  int
		pending  int
		phases   int
	}
	// run plays the scenario to horizon T (+Inf: to completion) on k
	// shards (0: the sequential engine). atT adds global events at exactly
	// T: 1 an observer on the completion key, which leaves the completion
	// itself to the final inclusive drain; 2 also an arrival, which pulls
	// it into the phase below the arrival's key.
	run := func(k int, T float64, atT int) result {
		rng := rand.New(rand.NewSource(42))
		e := sim.NewEngine()
		c := newTS(t, nodes)
		var res result
		c.OnJobDone = func(_ *sim.Engine, rj *RunningJob) {
			res.log = append(res.log, fmt.Sprintf("done %d @%v", rj.Job.ID, rj.Finish))
			res.finishes = append(res.finishes, rj.Finish)
		}
		nextID := 0
		submit := func(e *sim.Engine) {
			nextID++
			ids := rng.Perm(nodes)[:1+rng.Intn(3)]
			j := job(nextID, e.Now(), 40+360*rng.Float64(), 1e9, len(ids))
			if _, err := c.Submit(e, j, j.Runtime, ids); err != nil {
				t.Fatal(err)
			}
			res.log = append(res.log, fmt.Sprintf("submit %d running=%d", j.ID, c.Running()))
		}
		// Global events go on the calendar before any node event exists,
		// so on an equal key they carry the lower sequence number — the
		// order the barrier protocol gives them by construction.
		for _, at := range arrivals {
			e.At(at, sim.PriorityArrival, submit)
		}
		if atT >= 1 {
			e.At(T, sim.PriorityCompletion, func(*sim.Engine) {
				res.log = append(res.log, fmt.Sprintf("observe running=%d", c.Running()))
			})
		}
		if atT >= 2 {
			e.At(T, sim.PriorityArrival, submit)
		}
		if k > 0 {
			if err := c.AttachShards(shardEngines(k)); err != nil {
				t.Fatal(err)
			}
			defer c.DetachShards()
		}
		for i := 0; i < initial; i++ {
			submit(e)
		}
		if k > 0 {
			pool := sim.NewShardPool(k)
			defer pool.Close()
			onPhase := func(time.Duration) { res.phases++ }
			if err := c.AdvanceShards(context.Background(), e, pool, T, onPhase); err != nil {
				t.Fatal(err)
			}
			res.pending = e.Pending() + c.ShardsPending()
			res.now = e.Now()
			for _, se := range c.ShardEngines() {
				res.now = max(res.now, se.Now())
			}
		} else {
			e.SetHorizon(T)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			res.pending, res.now = e.Pending(), e.Now()
		}
		res.running = c.Running()
		for i := 0; i < nodes; i++ {
			res.versions = append(res.versions, c.Node(i).Version())
		}
		return res
	}

	// T is the completion time of a job finishing mid-scenario, read off
	// a sequential dry run; the events added at T fire after everything
	// that shaped that completion, so it stays put.
	var T float64
	for _, at := range run(0, math.Inf(1), 0).finishes {
		if at > 2000 {
			T = at
			break
		}
	}
	if T == 0 || T >= arrivals[len(arrivals)-1] {
		t.Fatalf("no mid-scenario completion to pin T on (T=%v)", T)
	}

	for atT := 1; atT <= 2; atT++ {
		want := run(0, T, atT)
		if len(want.finishes) < 5 || want.running == 0 || want.pending <= len(arrivals)/2 {
			t.Fatalf("scenario degenerate at T=%v: %d completions, %d running, %d pending", T, len(want.finishes), want.running, want.pending)
		}
		for _, k := range []int{2, 4} {
			got := run(k, T, atT)
			if !slices.Equal(got.log, want.log) {
				t.Errorf("K=%d atT=%d: event order diverges from sequential\nsharded    %q\nsequential %q", k, atT, got.log, want.log)
			}
			if !slices.Equal(got.versions, want.versions) {
				t.Errorf("K=%d atT=%d: node versions %v, sequential %v", k, atT, got.versions, want.versions)
			}
			if got.now != want.now || got.running != want.running || got.pending != want.pending {
				t.Errorf("K=%d atT=%d: now %v running %d pending %d, sequential %v/%d/%d",
					k, atT, got.now, got.running, got.pending, want.now, want.running, want.pending)
			}
			if got.phases == 0 {
				t.Errorf("K=%d atT=%d: onPhase never called", k, atT)
			}
		}
	}

	c := newTS(t, nodes)
	if err := c.AttachShards(shardEngines(2)); err != nil {
		t.Fatal(err)
	}
	pool := sim.NewShardPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.AdvanceShards(ctx, sim.NewEngine(), pool, T, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want one wrapping context.Canceled", err)
	}
}
