package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Engine is a discrete-event simulation engine. The zero value is not ready
// to use; construct with NewEngine. Pending events live in one binary heap
// ordered by (time, priority, seq); the cluster models keep about one
// pending event per node, so its O(log n) operations stay cheap.
//
// The engine is single-goroutine by design: determinism matters more than
// intra-simulation parallelism for scheduling studies, and whole parameter
// sweeps parallelize across independent Engine instances instead (see
// internal/experiment).
//
// Events are pooled: a fired or cancelled event returns to an intrusive
// freelist and the next At/After reuses it, so the steady-state event loop
// allocates nothing. This is safe precisely because the engine is
// single-goroutine — no other goroutine can observe a recycled event.
type Engine struct {
	now   float64
	queue eventQueue
	seq   uint64
	// horizon, if finite, aborts Run once simulated time would pass it.
	horizon float64
	// processed counts handler invocations, useful for tests and as a
	// runaway-loop guard via MaxEvents.
	processed uint64
	// MaxEvents, if non-zero, makes Run return ErrEventBudget once that
	// many events have been processed.
	MaxEvents uint64
	// checker, when installed, re-validates model invariants after every
	// handler; see SetInvariantChecker.
	checker *InvariantChecker
	// free heads the intrusive Event freelist (chained via Event.next).
	free *Event
}

// ErrEventBudget is returned by Run when MaxEvents is exhausted, which in a
// correct model indicates an event loop that re-schedules itself forever.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// ctxCheckMask sets how often RunContext polls its context: once every
// 64 processed events. Event handlers dominate the per-event cost, so the
// poll is noise, while 64 events of a paper-scale run are far below a
// millisecond of wall clock — cancellation lands at effectively
// event-loop granularity.
const ctxCheckMask = 63

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{horizon: math.Inf(1)}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of queued events. Cancel removes an event
// eagerly, so cancelled events never count.
func (e *Engine) Pending() int { return len(e.queue.events) }

// Processed returns the number of event handlers run so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetHorizon limits Run to events at or before t seconds. Events scheduled
// later stay queued; Run returns when the next event would exceed
// the horizon.
func (e *Engine) SetHorizon(t float64) { e.horizon = t }

// PeekNext reports the (time, priority) key of the earliest pending event
// in O(1) without processing it. ok is false when no event is pending. The
// horizon is not consulted: PeekNext answers "what would run next", limits
// apply only when running.
func (e *Engine) PeekNext() (t float64, p Priority, ok bool) {
	if len(e.queue.events) == 0 {
		return 0, 0, false
	}
	ev := e.queue.events[0]
	return ev.Time, ev.Priority, true
}

// AdvanceTo moves the clock forward to t without processing anything.
// Moving backwards is a no-op. The caller must guarantee no pending event
// is earlier than t; violating that would make a later Run panic on the
// clock-monotonicity its invariants assume.
func (e *Engine) AdvanceTo(t float64) {
	if math.IsNaN(t) {
		panic("sim: AdvanceTo NaN time")
	}
	if t > e.now {
		e.now = t
	}
}

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug and silently clamping would corrupt causality. The
// returned *Event may be a recycled allocation; it is valid to Cancel only
// until its handler has run.
func (e *Engine) At(t float64, p Priority, fn Handler) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.9g before now %.9g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.Time, ev.Priority, ev.seq, ev.fn = t, p, e.seq, fn
		ev.canceled, ev.recycled, ev.next = false, false, nil
	} else {
		// index -1: the zero value would read as "queued at the head".
		ev = &Event{Time: t, Priority: p, seq: e.seq, fn: fn, eng: e, index: -1}
	}
	e.queue.push(ev)
	return ev
}

// Retime moves the pending event ev to absolute time t, keeping its
// priority and handler. It gives ev a fresh sequence number, so ev takes
// exactly the key that Cancel followed by At(t, ev.Priority, fn) would
// give it (the freelist hands the cancelled event straight back), and the
// event order is the same; the one O(log n) sift replaces a removal and a
// push. Retiming an event that is not pending on e panics, as does a time
// before now or NaN.
func (e *Engine) Retime(ev *Event, t float64) {
	if ev.eng != e || ev.index < 0 {
		panic("sim: Retime of an event that is not pending on this engine")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: retiming event to %.9g before now %.9g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: retiming event to NaN time")
	}
	e.seq++
	e.queue.retime(ev, t, e.seq)
}

// After schedules fn at now+d.
func (e *Engine) After(d float64, p Priority, fn Handler) *Event {
	return e.At(e.now+d, p, fn)
}

// Reset returns the engine to its freshly constructed state in place: the
// event set is emptied (every pending event moves to the freelist), the
// clock, sequence counter, processed count, horizon, event budget and
// invariant checker all revert to their constructor values. The freelist
// and the event set's internal capacity are retained, so a run on a reset
// engine schedules from recycled storage instead of allocating.
//
// Reset invalidates every *Event previously returned by At/After;
// cancelling one of them afterwards panics via the recycled-event guard.
func (e *Engine) Reset() {
	for i, ev := range e.queue.events {
		e.queue.events[i] = nil
		ev.index = -1
		e.recycle(ev)
	}
	e.queue.events = e.queue.events[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.horizon = math.Inf(1)
	e.MaxEvents = 0
	e.checker = nil
}

// recycle pushes a dead event onto the freelist. The handler reference is
// dropped so closures do not outlive their run.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.recycled = true
	ev.next = e.free
	e.free = ev
}

// cancelEvent is Cancel's engine-side half: detach the queued event from
// the heap in O(log n) and recycle it, so long simulations with heavy
// Cancel traffic (a space-shared cluster cancels the completion of every
// job a crash kills) cannot grow the heap with dead entries.
func (e *Engine) cancelEvent(ev *Event) {
	e.queue.remove(ev)
	e.recycle(ev)
}

// SetInvariantChecker installs (or, with nil, removes) an invariant
// checker that runs after every processed event. A nil checker costs one
// pointer comparison per event, so production runs pay nothing.
func (e *Engine) SetInvariantChecker(c *InvariantChecker) { e.checker = c }

// Run processes events in order until no event is pending, the horizon
// is reached, or the event budget is exhausted.
func (e *Engine) Run() error {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few processed events (see ctxCheckMask), and once it is done the
// loop returns a wrapped context error without touching the pending event.
// The event set is left intact, so a later RunContext call with a live
// context resumes exactly where this one stopped. A background context
// costs one nil comparison per event.
func (e *Engine) RunContext(ctx context.Context) error {
	done := ctx.Done()
	if done != nil {
		if err := context.Cause(ctx); err != nil {
			return fmt.Errorf("sim: run canceled before start: %w", err)
		}
	}
	for {
		if done != nil && e.processed&ctxCheckMask == 0 {
			select {
			case <-done:
				return fmt.Errorf("sim: run canceled at t=%.6g after %d events: %w",
					e.now, e.processed, context.Cause(ctx))
			default:
			}
		}
		ev := e.next()
		if ev == nil {
			return nil
		}
		if err := e.fire(ev); err != nil {
			return err
		}
	}
}

// Step processes exactly one event and reports whether one was available.
// Useful for unit tests that walk a model event by event. Step honors the
// same limits as Run: an event beyond the horizon stays queued and Step
// reports false, and exhausting MaxEvents returns ErrEventBudget.
func (e *Engine) Step() (bool, error) {
	ev := e.next()
	if ev == nil {
		return false, nil
	}
	if err := e.fire(ev); err != nil {
		return false, err
	}
	return true, nil
}

// next pops the earliest event if it lies within the horizon. It returns
// nil, leaving the heap untouched, when no event is pending or the head
// lies past the horizon and must wait for a later Run with a larger one.
func (e *Engine) next() *Event {
	if len(e.queue.events) == 0 || e.queue.events[0].Time > e.horizon {
		return nil
	}
	return e.queue.pop()
}

// fire advances the clock to a popped event, charges it to the event
// budget, runs its handler and the invariant checker, and recycles it.
func (e *Engine) fire(ev *Event) error {
	e.now = ev.Time
	e.processed++
	if e.MaxEvents != 0 && e.processed > e.MaxEvents {
		return ErrEventBudget
	}
	ev.fn(e)
	if e.checker != nil {
		e.checker.observe(e)
	}
	if !ev.canceled {
		// A handler cancelling its own in-flight event keeps it out of
		// the pool (rare, and recycling it then would make the stale
		// pointer the canceller holds ambiguous).
		e.recycle(ev)
	}
	return nil
}
