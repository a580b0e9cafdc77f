package sim

import (
	"math"
	"testing"
)

func TestPeekNextReturnsEarliestWithoutConsuming(t *testing.T) {
	e := NewEngine()
	e.At(5, PriorityDefault, func(*Engine) {})
	e.At(2, PriorityCompletion, func(*Engine) {})
	e.At(2, PriorityDefault, func(*Engine) {})
	tm, p, ok := e.PeekNext()
	if !ok || tm != 2 || p != PriorityCompletion {
		t.Fatalf("PeekNext = (%g, %d, %v), want (2, %d, true)", tm, p, ok, PriorityCompletion)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after peek, want 3", e.Pending())
	}
	// A second peek sees the same head.
	tm2, p2, ok2 := e.PeekNext()
	if tm2 != tm || p2 != p || !ok2 {
		t.Fatalf("second PeekNext = (%g, %d, %v), want same head", tm2, p2, ok2)
	}
}

func TestPeekNextSkipsAndReclaimsCanceledHead(t *testing.T) {
	// Cancelling the head removes it from the heap and recycles it at once,
	// so PeekNext reports the next live event, never the dead one.
	e := NewEngine()
	dead := e.At(1, PriorityDefault, func(*Engine) { t.Fatal("canceled handler ran") })
	e.At(4, PriorityDefault, func(*Engine) {})
	dead.Cancel()
	tm, _, ok := e.PeekNext()
	if !ok || tm != 4 {
		t.Fatalf("PeekNext = (%g, %v), want (4, true)", tm, ok)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if e.free != dead {
		t.Fatal("cancelled head was not reclaimed onto the freelist")
	}
}

func TestPeekNextEmpty(t *testing.T) {
	e := NewEngine()
	if _, _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext on empty engine reported an event")
	}
}

func TestSetHorizonKeyExclusiveAtSameTime(t *testing.T) {
	// The horizon key (t, p) admits only events strictly earlier in the
	// (time, priority) order: at time t exactly, priorities >= p stay
	// queued. This is the barrier rule the sharded runner relies on.
	e := NewEngine()
	var fired []Priority
	for _, p := range []Priority{PriorityFault, PriorityCompletion, PriorityDefault, PriorityArrival} {
		p := p
		e.At(10, p, func(*Engine) { fired = append(fired, p) })
	}
	e.SetHorizonKey(10, PriorityDefault)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != PriorityFault || fired[1] != PriorityCompletion {
		t.Fatalf("fired = %v, want [%d %d]", fired, PriorityFault, PriorityCompletion)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	// SetHorizon restores inclusive semantics for the same timestamp.
	e.SetHorizon(10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || e.Pending() != 0 {
		t.Fatalf("fired = %v pending = %d after inclusive horizon", fired, e.Pending())
	}
}

func TestSetHorizonKeyResetRestoresInclusive(t *testing.T) {
	e := NewEngine()
	e.SetHorizonKey(10, PriorityFault)
	e.Reset()
	hit := false
	e.At(10, PriorityDefault, func(*Engine) { hit = true })
	e.SetHorizon(10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("event at the horizon did not fire after Reset (horizon key leaked)")
	}
}

func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(5)
	if e.Now() != 5 {
		t.Fatalf("Now = %g, want 5", e.Now())
	}
	// Forward-only: moving back is a no-op.
	e.AdvanceTo(3)
	if e.Now() != 5 {
		t.Fatalf("Now = %g after backward AdvanceTo, want 5", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo(NaN) did not panic")
		}
	}()
	e.AdvanceTo(math.NaN())
}

func TestShardStreamsDistinctAndDeterministic(t *testing.T) {
	r := NewRNG(42)
	a1 := r.ShardStream(0, 7).Uint64()
	a2 := r.ShardStream(0, 7).Uint64()
	if a1 != a2 {
		t.Fatal("ShardStream is not deterministic")
	}
	if b := r.ShardStream(1, 7).Uint64(); b == a1 {
		t.Fatal("distinct shards produced the same stream")
	}
	if c := r.ShardStream(0, 8).Uint64(); c == a1 {
		t.Fatal("distinct ids produced the same stream")
	}
	var dst RNG
	r.ShardStreamInto(&dst, 0, 7)
	if got := dst.Uint64(); got != a1 {
		t.Fatalf("ShardStreamInto = %d, want %d", got, a1)
	}
}
