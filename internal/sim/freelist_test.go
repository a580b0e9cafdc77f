package sim

import "testing"

// freelistEvents walks the engine's freelist.
func freelistEvents(e *Engine) []*Event {
	var out []*Event
	for ev := e.free; ev != nil; ev = ev.next {
		out = append(out, ev)
	}
	return out
}

// checkFreelistDisjoint asserts the core freelist invariant: no event is
// reachable from both the heap and the freelist, every freelisted event
// carries the recycled guard, and every queued event does not and knows
// its heap position.
func checkFreelistDisjoint(t *testing.T, e *Engine) {
	t.Helper()
	onFree := map[*Event]bool{}
	for _, ev := range freelistEvents(e) {
		if onFree[ev] {
			t.Fatal("freelist contains a cycle or duplicate event")
		}
		onFree[ev] = true
		if !ev.recycled {
			t.Fatal("freelisted event without the recycled guard flag")
		}
		if ev.index != -1 {
			t.Fatalf("freelisted event still has heap index %d", ev.index)
		}
		if ev.fn != nil {
			t.Fatal("freelisted event retains its handler")
		}
	}
	for i, ev := range e.queue.events {
		if onFree[ev] {
			t.Fatalf("event at t=%g reachable from both heap and freelist", ev.Time)
		}
		if ev.recycled {
			t.Fatalf("queued event at t=%g carries the recycled guard", ev.Time)
		}
		if ev.index != i {
			t.Fatalf("queued event at heap position %d records index %d", i, ev.index)
		}
	}
}

func TestFreelistDisjointFromCalendar(t *testing.T) {
	for _, mk := range []struct {
		name string
		fn   func() *Engine
	}{{"heap", NewEngine}} {
		t.Run(mk.name, func(t *testing.T) {
			e := mk.fn()
			r := NewRNG(11)
			var cancelable []*Event
			var chain Handler
			chain = func(e *Engine) {
				if e.Now() < 200 {
					e.After(1+r.Float64()*3, PriorityDefault, chain)
					ev := e.After(2+r.Float64()*5, PriorityCompletion, func(*Engine) {})
					if r.Bool(0.5) {
						ev.Cancel()
					} else {
						cancelable = append(cancelable, ev)
					}
				}
			}
			e.At(0, PriorityDefault, chain)
			for i := 0; i < 50; i++ {
				if ok, err := e.Step(); !ok || err != nil {
					break
				}
				checkFreelistDisjoint(t, e)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			checkFreelistDisjoint(t, e)
			if e.Pending() != 0 {
				t.Fatalf("Pending() = %d after full run", e.Pending())
			}
		})
	}
}

func TestEventReuseAfterFiring(t *testing.T) {
	e := NewEngine()
	fired := 0
	first := e.At(1, PriorityDefault, func(*Engine) { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	second := e.At(2, PriorityDefault, func(*Engine) { fired++ })
	if first != second {
		t.Fatal("fired event was not recycled by the next At")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestCancelOfRecycledEventPanics(t *testing.T) {
	e := NewEngine()
	ev := e.At(1, PriorityDefault, func(*Engine) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// ev has fired and sits on the freelist: a handler (or any caller)
	// cancelling the stale pointer must be caught loudly.
	defer func() {
		if recover() == nil {
			t.Error("Cancel of a recycled event did not panic")
		}
	}()
	ev.Cancel()
}

func TestCancelRemovesFromHeapImmediately(t *testing.T) {
	e := NewEngine()
	keep := e.At(5, PriorityDefault, func(*Engine) {})
	ev := e.At(3, PriorityDefault, func(*Engine) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after Cancel, want 1 (live events only)", e.Pending())
	}
	checkFreelistDisjoint(t, e)
	_ = keep
}

func TestEngineResetRestoresConstructorState(t *testing.T) {
	for _, mk := range []struct {
		name string
		fn   func() *Engine
	}{{"heap", NewEngine}} {
		t.Run(mk.name, func(t *testing.T) {
			e := mk.fn()
			e.MaxEvents = 7
			e.SetHorizon(4)
			hits := 0
			e.At(1, PriorityDefault, func(*Engine) { hits++ })
			e.At(9, PriorityDefault, func(*Engine) { hits++ })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if hits != 1 || e.Pending() != 1 {
				t.Fatalf("pre-reset hits=%d pending=%d", hits, e.Pending())
			}
			e.Reset()
			if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 || e.MaxEvents != 0 {
				t.Fatalf("Reset left now=%g pending=%d processed=%d maxEvents=%d",
					e.Now(), e.Pending(), e.Processed(), e.MaxEvents)
			}
			checkFreelistDisjoint(t, e)
			// The drained event must be reusable: a fresh run on the reset
			// engine behaves exactly like a run on a new engine.
			order := []float64{}
			e.At(2, PriorityDefault, func(e *Engine) { order = append(order, e.Now()) })
			e.At(1, PriorityDefault, func(e *Engine) { order = append(order, e.Now()) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(order) != 2 || order[0] != 1 || order[1] != 2 {
				t.Fatalf("post-reset order = %v", order)
			}
			checkFreelistDisjoint(t, e)
		})
	}
}

func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	var ping Handler
	remaining := 0
	ping = func(e *Engine) {
		if remaining > 0 {
			remaining--
			e.After(1, PriorityDefault, ping)
			ev := e.After(0.5, PriorityCompletion, func(*Engine) {})
			ev.Cancel()
		}
	}
	run := func() {
		remaining = 100
		e.At(e.Now(), PriorityDefault, ping)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the freelist
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Fatalf("steady-state event loop allocates %.1f times per run, want 0", avg)
	}
}
