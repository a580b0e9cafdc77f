package sim

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

// eventQueue is a binary min-heap of events ordered by (Time, Priority,
// seq), typed on []*Event: container/heap's interface call per comparison
// and per swap showed in the event loop's profile. seq is unique, so the
// order is total and the pop order does not depend on the heap's layout
// or on how an operation sifts.
type eventQueue struct {
	events []*Event
}

// eventLess is the (Time, Priority, seq) order.
func eventLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

// push queues ev.
func (q *eventQueue) push(ev *Event) {
	q.events = append(q.events, ev)
	q.up(len(q.events)-1, ev)
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() *Event {
	head := q.events[0]
	q.detach(0)
	return head
}

// remove detaches the queued event ev.
func (q *eventQueue) remove(ev *Event) { q.detach(ev.index) }

// retime moves the queued event ev to time t with sequence number seq and
// restores the heap order around it, in one O(log n) sift.
func (q *eventQueue) retime(ev *Event, t float64, seq uint64) {
	ev.Time, ev.seq = t, seq
	if !q.down(ev.index, ev) {
		q.up(ev.index, ev)
	}
}

// detach removes the event at position i, moving the last event into the
// hole and sifting it into place, and marks the removed event unqueued.
func (q *eventQueue) detach(i int) {
	n := len(q.events) - 1
	gone, last := q.events[i], q.events[n]
	q.events[n] = nil
	q.events = q.events[:n]
	gone.index = -1
	if i == n {
		return
	}
	if !q.down(i, last) {
		q.up(i, last)
	}
}

// up places ev, which belongs at position i or above, by moving the
// later parents down into the hole.
func (q *eventQueue) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 2
		parent := q.events[p]
		if !eventLess(ev, parent) {
			break
		}
		q.events[i] = parent
		parent.index = i
		i = p
	}
	q.events[i] = ev
	ev.index = i
}

// down places ev, which belongs at position i or below, by moving the
// earlier children up into the hole. It reports whether ev moved.
func (q *eventQueue) down(i int, ev *Event) bool {
	start, n := i, len(q.events)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(q.events[r], q.events[c]) {
			c = r
		}
		child := q.events[c]
		if !eventLess(child, ev) {
			break
		}
		q.events[i] = child
		child.index = i
		i = c
	}
	q.events[i] = ev
	ev.index = i
	return i > start
}
