package sim

import (
	"math"
	"testing"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, PriorityDefault, func(*Engine) { order = append(order, 3) })
	e.At(1, PriorityDefault, func(*Engine) { order = append(order, 1) })
	e.At(2, PriorityDefault, func(*Engine) { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineSameTimePriorityOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(5, PriorityArrival, func(*Engine) { order = append(order, "arrival") })
	e.At(5, PriorityCompletion, func(*Engine) { order = append(order, "completion") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "completion" || order[1] != "arrival" {
		t.Fatalf("order = %v, want [completion arrival]", order)
	}
}

func TestEngineSameTimeSamePriorityFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, PriorityDefault, func(*Engine) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO insertion order", order)
		}
	}
}

func TestEngineHandlerSchedulesFollowUp(t *testing.T) {
	e := NewEngine()
	var hits int
	var ping Handler
	ping = func(e *Engine) {
		hits++
		if hits < 5 {
			e.After(1, PriorityDefault, ping)
		}
	}
	e.At(0, PriorityDefault, ping)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 5 {
		t.Fatalf("hits = %d, want 5", hits)
	}
	if e.Now() != 4 {
		t.Fatalf("Now() = %v, want 4", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(1, PriorityDefault, func(*Engine) { ran = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event still ran")
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	var hits int
	e.At(1, PriorityDefault, func(*Engine) { hits++ })
	e.At(10, PriorityDefault, func(*Engine) { hits++ })
	e.SetHorizon(5)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (event beyond horizon must not run)", hits)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, PriorityDefault, func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, PriorityDefault, func(*Engine) {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNaNTimePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at NaN did not panic")
		}
	}()
	e.At(math.NaN(), PriorityDefault, func(*Engine) {})
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop Handler
	loop = func(e *Engine) { e.After(1, PriorityDefault, loop) }
	e.At(0, PriorityDefault, loop)
	if err := e.Run(); err != ErrEventBudget {
		t.Fatalf("Run() = %v, want ErrEventBudget", err)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	var hits int
	e.At(1, PriorityDefault, func(*Engine) { hits++ })
	e.At(2, PriorityDefault, func(*Engine) { hits++ })
	if ok, err := e.Step(); !ok || err != nil {
		t.Fatalf("Step() = %v, %v with events pending", ok, err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d after one step, want 1", hits)
	}
	if ok, err := e.Step(); !ok || err != nil {
		t.Fatalf("Step() = %v, %v with one event pending", ok, err)
	}
	if ok, err := e.Step(); ok || err != nil {
		t.Fatalf("Step() = %v, %v with empty calendar", ok, err)
	}
}

func TestEngineStepHonorsHorizon(t *testing.T) {
	e := NewEngine()
	var hits int
	e.At(1, PriorityDefault, func(*Engine) { hits++ })
	e.At(10, PriorityDefault, func(*Engine) { hits++ })
	e.SetHorizon(5)
	if ok, err := e.Step(); !ok || err != nil {
		t.Fatalf("Step() = %v, %v for in-horizon event", ok, err)
	}
	// The t=10 event is beyond the horizon: Step must refuse to process it
	// and leave it in the calendar, exactly like Run.
	if ok, err := e.Step(); ok || err != nil {
		t.Fatalf("Step() = %v, %v for past-horizon event, want false, nil", ok, err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (event beyond horizon must not run)", hits)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (past-horizon event must stay queued)", e.Pending())
	}
	e.SetHorizon(20)
	if ok, err := e.Step(); !ok || err != nil {
		t.Fatalf("Step() = %v, %v after widening horizon", ok, err)
	}
	if hits != 2 {
		t.Fatalf("hits = %d after widened horizon, want 2", hits)
	}
}

func TestEngineStepHonorsEventBudget(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 2
	for i := 0; i < 3; i++ {
		e.At(float64(i), PriorityDefault, func(*Engine) {})
	}
	for i := 0; i < 2; i++ {
		if ok, err := e.Step(); !ok || err != nil {
			t.Fatalf("Step() = %v, %v within budget", ok, err)
		}
	}
	if ok, err := e.Step(); ok || err != ErrEventBudget {
		t.Fatalf("Step() = %v, %v beyond budget, want false, ErrEventBudget", ok, err)
	}
}

func TestEngineProcessedCountsOnlyRunHandlers(t *testing.T) {
	e := NewEngine()
	ev := e.At(1, PriorityDefault, func(*Engine) {})
	ev.Cancel()
	e.At(2, PriorityDefault, func(*Engine) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Processed(); got != 1 {
		t.Fatalf("Processed() = %d, want 1", got)
	}
}

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
