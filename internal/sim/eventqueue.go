package sim

import "container/heap"

// Priority orders events that share the same timestamp. Lower values run
// first. Using explicit priorities keeps simultaneous events (for example a
// job completion freeing processors and a job arrival wanting them)
// deterministic without depending on scheduling order.
type Priority int

// Standard priorities used by the cluster model. Completions drain before
// arrivals are admitted, mirroring the behaviour of real resource managers
// that process finished jobs before considering new submissions.
const (
	// PriorityFault runs before completions: a node that dies at the same
	// instant a slice would finish kills that slice — the conservative
	// (and deterministic) reading of a tie that has probability zero under
	// continuous failure distributions.
	PriorityFault      Priority = -20
	PriorityCompletion Priority = -10
	PriorityDefault    Priority = 0
	PriorityArrival    Priority = 10
	PriorityMonitor    Priority = 20
)

// Handler is the callback attached to a scheduled event. It receives the
// engine so it may schedule follow-up events.
type Handler func(e *Engine)

// Event is a single entry in the engine's future event set. Events are
// owned by the engine that scheduled them: once an event has fired (or
// been cancelled) the engine recycles it through an intrusive freelist, so
// a caller must not retain an *Event past the point where its handler ran.
type Event struct {
	Time     float64
	Priority Priority
	seq      uint64
	fn       Handler
	canceled bool
	// recycled guards the freelist: it is set while the event sits on the
	// engine's freelist, and any Cancel of such a stale pointer panics
	// instead of silently corrupting an unrelated reused event.
	recycled bool
	eng      *Engine // owning engine, for O(log n) Cancel and recycling
	// index is the heap position while the event is queued and -1
	// otherwise, so Cancel can tell a pending event (detachable) from one
	// that is firing or recycled.
	index int
	next  *Event // freelist link
}

// Cancel marks the event so its handler will not run. A queued event is
// removed from the heap in O(log n) and recycled immediately, so the event
// set never holds a cancelled event. Cancelling an event that the engine
// has already recycled panics: the caller held a stale pointer, and a
// silent cancel could hit whatever event reused that allocation.
func (ev *Event) Cancel() {
	if ev.recycled {
		panic("sim: Cancel of a recycled event (stale *Event retained after it fired)")
	}
	if ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		ev.eng.cancelEvent(ev)
	}
}

// Canceled reports whether Cancel has been called on the event.
func (ev *Event) Canceled() bool { return ev.canceled }

// eventQueue is a binary heap of events ordered by (Time, Priority, seq).
type eventQueue struct {
	events []*Event
}

var _ heap.Interface = (*eventQueue)(nil)

func (q *eventQueue) Len() int { return len(q.events) }

func (q *eventQueue) Less(i, j int) bool {
	a, b := q.events[i], q.events[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

func (q *eventQueue) Swap(i, j int) {
	q.events[i], q.events[j] = q.events[j], q.events[i]
	q.events[i].index = i
	q.events[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(q.events)
	q.events = append(q.events, ev)
}

func (q *eventQueue) Pop() any {
	old := q.events
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	q.events = old[:n-1]
	return ev
}
