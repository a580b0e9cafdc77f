package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// TestEngineFiresInKeyOrderProperty drives the engine through seeded random
// interleavings of At, Cancel, Retime, SetHorizon, PeekNext, Step
// and Run, with handlers that schedule and cancel further events, against
// a reference slice of the live events. Every fired event must be the
// reference's (time, priority, seq) minimum, and after every operation
// PeekNext must report that minimum and Pending the reference length.
func TestEngineFiresInKeyOrderProperty(t *testing.T) {
	type entry struct {
		time float64
		prio Priority
		seq  uint64
		ev   *Event
	}
	less := func(a, b entry) bool {
		if a.time != b.time {
			return a.time < b.time
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	}
	const maxScheduled = 400
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		e := NewEngine()
		var live []entry
		var seq uint64
		horizon := math.Inf(1)
		// Small integer offsets and four priorities make equal-time and
		// equal-key ties (broken by seq) common.
		randPrio := func() Priority { return Priority(r.Intn(4)*10 - 20) }
		head := func() int {
			h := -1
			for i := range live {
				if h < 0 || less(live[i], live[h]) {
					h = i
				}
			}
			return h
		}
		remove := func(i int) {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		beyond := func(en entry) bool {
			return en.time > horizon
		}
		check := func(op string) {
			t.Helper()
			if e.Pending() != len(live) {
				t.Fatalf("seed %d after %s: Pending = %d, reference holds %d", seed, op, e.Pending(), len(live))
			}
			tm, p, ok := e.PeekNext()
			h := head()
			if ok != (h >= 0) || (ok && (tm != live[h].time || p != live[h].prio)) {
				t.Fatalf("seed %d after %s: PeekNext = (%g, %d, %v), reference head index %d", seed, op, tm, p, ok, h)
			}
		}
		cancelOne := func() {
			if len(live) == 0 {
				return
			}
			i := r.Intn(len(live))
			live[i].ev.Cancel()
			remove(i)
		}
		var schedule func(at float64)
		schedule = func(at float64) {
			seq++
			en := entry{time: at, prio: randPrio(), seq: seq}
			en.ev = e.At(at, en.prio, func(e *Engine) {
				h := head()
				if h < 0 || live[h].ev != en.ev {
					t.Fatalf("seed %d: fired the event first scheduled at (%g, %d, %d) but the reference head index is %d", seed, en.time, en.prio, en.seq, h)
				}
				if e.Now() != live[h].time {
					t.Fatalf("seed %d: handler for t=%g ran at Now = %g", seed, live[h].time, e.Now())
				}
				remove(h)
				for n := r.Intn(3); n > 0 && seq < maxScheduled; n-- {
					schedule(e.Now() + float64(r.Intn(4)))
				}
				if r.Bool(0.3) {
					cancelOne()
				}
				check("handler")
			})
			live = append(live, en)
		}

		// retimeOne moves a random pending event, which must then take the
		// key a cancel and a fresh At would give it.
		retimeOne := func() {
			if len(live) == 0 {
				return
			}
			seq++
			en := &live[r.Intn(len(live))]
			en.time, en.seq = e.Now()+float64(r.Intn(6)), seq
			e.Retime(en.ev, en.time)
		}

		for op := 0; op < 200; op++ {
			switch r.Intn(8) {
			case 0, 1:
				if seq < maxScheduled {
					schedule(e.Now() + float64(r.Intn(6)))
				}
				check("At")
			case 2:
				cancelOne()
				check("Cancel")
			case 3, 4:
				horizon = e.Now() + float64(r.Intn(6))
				e.SetHorizon(horizon)
				check("SetHorizon")
			case 5:
				h := head()
				want := h >= 0 && !beyond(live[h])
				got, err := e.Step()
				if err != nil || got != want {
					t.Fatalf("seed %d: Step = %v, %v, want %v, nil", seed, got, err, want)
				}
				check("Step")
			case 7:
				retimeOne()
				check("Retime")
			case 6:
				if err := e.Run(); err != nil {
					t.Fatalf("seed %d: Run: %v", seed, err)
				}
				if h := head(); h >= 0 && !beyond(live[h]) {
					t.Fatalf("seed %d: Run returned with an in-horizon event pending", seed)
				}
				check("Run")
			}
		}
		horizon = math.Inf(1)
		e.SetHorizon(horizon)
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: final Run: %v", seed, err)
		}
		if len(live) != 0 {
			t.Fatalf("seed %d: %d reference events never fired", seed, len(live))
		}
		check("final Run")
	}
}

// eventKeyLess is the (time, priority, seq) order the event heap must keep.
func eventKeyLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

// TestCalendarQueueMatchesHeapOrderProperty pushes a random batch of events
// into the event heap and checks that draining it yields exactly the
// batch sorted by (time, priority, seq). The name predates the removal of
// the calendar queue; the reference it compares against is now a sort.
func TestCalendarQueueMatchesHeapOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		q := &eventQueue{}
		n := 1 + r.Intn(300)
		want := make([]*Event, 0, n)
		// Integer times make equal-time and equal-key ties common.
		for i := 0; i < n; i++ {
			ev := &Event{Time: float64(r.Intn(100)), Priority: Priority(r.Intn(3) - 1), seq: uint64(i)}
			q.push(ev)
			want = append(want, ev)
		}
		sort.Slice(want, func(i, j int) bool { return eventKeyLess(want[i], want[j]) })
		for i := range want {
			if len(q.events) != n-i {
				return false
			}
			if got := q.pop(); got != want[i] || got.index != -1 {
				return false
			}
		}
		return len(q.events) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarQueueInterleavedPushPopProperty interleaves pushes at or after
// the last popped time (the discrete-event discipline), retimes of queued
// events and pops, and checks every pop against the minimum of a reference
// slice of the queued events. A retime must give the event the key a
// cancel and a fresh push would: its new time and a fresh seq, so that
// among equal (time, priority) keys it now fires after every event queued
// before it. Integer times make those ties common. The name predates the
// removal of the calendar queue.
func TestCalendarQueueInterleavedPushPopProperty(t *testing.T) {
	type entry struct {
		ev   *Event
		time float64
		prio Priority
		seq  uint64
	}
	less := func(a, b entry) bool {
		if a.time != b.time {
			return a.time < b.time
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	}
	g := func(seed uint64) bool {
		r := NewRNG(seed)
		q := &eventQueue{}
		var live []entry
		now := 0.0
		seq := uint64(0)
		popMin := func() *Event {
			m := 0
			for i := range live {
				if less(live[i], live[m]) {
					m = i
				}
			}
			ev := live[m].ev
			live[m] = live[len(live)-1]
			live = live[:len(live)-1]
			return ev
		}
		for step := 0; step < 400; step++ {
			switch u := r.Float64(); {
			case u < 0.45 || len(q.events) == 0:
				seq++
				en := entry{time: now + float64(r.Intn(8)), prio: Priority(r.Intn(3) - 1), seq: seq}
				en.ev = &Event{Time: en.time, Priority: en.prio, seq: en.seq}
				q.push(en.ev)
				live = append(live, en)
			case u < 0.7:
				seq++
				en := &live[r.Intn(len(live))]
				en.time, en.seq = now+float64(r.Intn(8)), seq
				q.retime(en.ev, en.time, seq)
			default:
				got := q.pop()
				if got != popMin() {
					return false
				}
				now = got.Time
			}
			if len(q.events) != len(live) {
				return false
			}
		}
		for len(live) > 0 {
			if q.pop() != popMin() {
				return false
			}
		}
		return len(q.events) == 0
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEventQueueHeap measures a hold-model workload (pop one, push
// one) at a steady population of 4096 events, the classic future-event-set
// benchmark.
func BenchmarkEventQueueHeap(b *testing.B) {
	r := NewRNG(1)
	q := &eventQueue{}
	const pop = 4096
	for i := 0; i < pop; i++ {
		q.push(&Event{Time: r.Float64() * 100, seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		ev.Time += r.Exp(50)
		q.push(ev)
	}
}
