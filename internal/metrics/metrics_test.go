package metrics

import (
	"math"
	"math/rand"
	"testing"

	"clustersched/internal/workload"
)

func wjob(id int, submit, runtime, deadline float64, class workload.Class) workload.Job {
	return workload.Job{
		ID: id, Submit: submit, Runtime: runtime, TraceEstimate: runtime,
		NumProc: 1, Deadline: deadline, Class: class,
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder()
	j1 := wjob(1, 0, 100, 200, workload.HighUrgency)
	j2 := wjob(2, 10, 100, 150, workload.LowUrgency)
	j3 := wjob(3, 20, 100, 300, workload.LowUrgency)
	j4 := wjob(4, 30, 100, 300, workload.HighUrgency)

	r.Submitted(j1)
	r.Submitted(j2)
	r.Submitted(j3)
	r.Submitted(j4)
	if r.Pending() != 4 {
		t.Fatalf("Pending = %d", r.Pending())
	}

	r.Complete(j1, 150, 100) // met: finish 150 ≤ 200; slowdown 1.5
	r.Complete(j2, 200, 100) // missed: 200 - 10 = 190 > 150; delay 40
	r.Reject(j3, "no nodes") // rejected
	r.Flush()                // j4 unfinished

	s := r.Summarize()
	if s.Submitted != 4 || s.Met != 1 || s.Missed != 1 || s.Rejected != 1 || s.Unfinished != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.PctFulfilled-25) > 1e-9 {
		t.Fatalf("PctFulfilled = %v, want 25", s.PctFulfilled)
	}
	if math.Abs(s.AvgSlowdownMet-1.5) > 1e-9 {
		t.Fatalf("AvgSlowdownMet = %v, want 1.5", s.AvgSlowdownMet)
	}
	if math.Abs(s.MeanDelayMissed-40) > 1e-9 {
		t.Fatalf("MeanDelayMissed = %v, want 40", s.MeanDelayMissed)
	}
	if s.MetHigh != 1 || s.MetLow != 0 || s.SubmittedHigh != 2 || s.SubmittedLow != 2 {
		t.Fatalf("class splits wrong: %+v", s)
	}
	if math.Abs(s.AcceptanceRate-0.75) > 1e-9 {
		t.Fatalf("AcceptanceRate = %v, want 0.75 (3 of 4 accepted)", s.AcceptanceRate)
	}
}

func TestCompleteExactlyAtDeadlineCounts(t *testing.T) {
	r := NewRecorder()
	j := wjob(1, 0, 100, 200, workload.LowUrgency)
	r.Submitted(j)
	r.Complete(j, 200, 100)
	s := r.Summarize()
	if s.Met != 1 {
		t.Fatalf("finishing exactly at the deadline must count as met: %+v", s)
	}
}

func TestDelayMatchesEquationThree(t *testing.T) {
	r := NewRecorder()
	j := wjob(1, 50, 100, 200, workload.LowUrgency)
	r.Submitted(j)
	r.Complete(j, 300, 100) // response 250, deadline 200 → delay 50
	res := r.Results()[0]
	if res.Outcome != Missed || math.Abs(res.Delay-50) > 1e-9 {
		t.Fatalf("result = %+v, want delay 50", res)
	}
}

func TestZeroMinRuntimeAvoidsDivZero(t *testing.T) {
	r := NewRecorder()
	j := wjob(1, 0, 100, 200, workload.LowUrgency)
	r.Submitted(j)
	r.Complete(j, 100, 0)
	if sd := r.Results()[0].Slowdown; sd != 0 || math.IsNaN(sd) {
		t.Fatalf("Slowdown = %v", sd)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewRecorder().Summarize()
	if s.PctFulfilled != 0 || s.AvgSlowdownMet != 0 || s.AcceptanceRate != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestFlushIdempotent(t *testing.T) {
	r := NewRecorder()
	j := wjob(1, 0, 100, 200, workload.LowUrgency)
	r.Submitted(j)
	r.Flush()
	r.Flush()
	if s := r.Summarize(); s.Unfinished != 1 || s.Submitted != 1 {
		t.Fatalf("double flush corrupted results: %+v", s)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Rejected: "rejected", Met: "met", Missed: "missed", Unfinished: "unfinished",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	if Outcome(42).String() == "" {
		t.Error("unknown outcome should still print")
	}
}

func TestRecorderOverflowIDs(t *testing.T) {
	r := NewRecorder()
	// First submission latches denseBase; a far-away ID must spill to the
	// overflow map and still complete/flush correctly.
	near := wjob(100, 0, 50, 100, workload.LowUrgency)
	far := wjob(100_000_000, 1, 50, 100, workload.LowUrgency)
	far2 := wjob(200_000_000, 2, 50, 100, workload.HighUrgency)
	r.Submitted(near)
	r.Submitted(far)
	r.Submitted(far2)
	if r.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", r.Pending())
	}
	r.Complete(far, 40, 50)
	if r.Pending() != 2 {
		t.Fatalf("Pending = %d after overflow complete, want 2", r.Pending())
	}
	r.Flush()
	if err := r.ConservationError(); err != nil {
		t.Fatal(err)
	}
	s := r.Summarize()
	if s.Submitted != 3 || s.Met != 1 || s.Unfinished != 2 {
		t.Fatalf("summary = %+v", s)
	}
	// Flush order is deterministic: dense ascending, then overflow ascending.
	res := r.Results()
	last := res[len(res)-1]
	if last.JobID != 200_000_000 {
		t.Fatalf("last flushed ID = %d, want 200000000", last.JobID)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.Observer = func(JobResult) {}
	r.Submitted(wjob(1, 0, 50, 100, workload.LowUrgency))
	r.Submitted(wjob(2, 1, 50, 100, workload.LowUrgency))
	r.Complete(wjob(1, 0, 50, 100, workload.LowUrgency), 40, 50)
	r.Killed(wjob(2, 1, 50, 100, workload.LowUrgency))
	r.Reset()
	if r.Pending() != 0 || len(r.Results()) != 0 || r.Kills() != 0 || r.Observer != nil {
		t.Fatalf("Reset left pending=%d results=%d kills=%d observer=%v",
			r.Pending(), len(r.Results()), r.Kills(), r.Observer != nil)
	}
	if s := r.Summarize(); s.Submitted != 0 {
		t.Fatalf("post-reset summary = %+v", s)
	}
	// A reused recorder behaves exactly like a fresh one.
	j := wjob(7, 0, 100, 200, workload.HighUrgency)
	r.Submitted(j)
	r.Complete(j, 150, 100)
	r.Flush()
	if err := r.ConservationError(); err != nil {
		t.Fatal(err)
	}
	s := r.Summarize()
	if s.Submitted != 1 || s.Met != 1 {
		t.Fatalf("post-reset run summary = %+v", s)
	}
}

func TestRecorderSteadyStateAllocationFree(t *testing.T) {
	r := NewRecorder()
	jobs := make([]workload.Job, 64)
	for i := range jobs {
		jobs[i] = wjob(1_000_000+i, float64(i), 50, 100, workload.LowUrgency)
	}
	run := func() {
		r.Reset()
		for _, j := range jobs {
			r.Submitted(j)
		}
		for i, j := range jobs {
			if i%2 == 0 {
				r.Complete(j, j.Submit+40, 50)
			}
		}
		r.Flush()
	}
	run() // grow the dense table and result storage
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Fatalf("steady-state recorder allocates %.1f times per run, want 0", avg)
	}
}

// TestStreamingRecorderMatchesKeepingRecorder records one seeded stream —
// jobs finalized out of order after a short window, rejections, kills,
// far-out IDs and a final flush — into a keeping and a streaming recorder.
// Both must report the identical summary, pending count and observed
// results; the streaming one keeps no results, and its dense pending table
// spans the pending window, not the 100 000 IDs it has seen.
func TestStreamingRecorderMatchesKeepingRecorder(t *testing.T) {
	keep, stream := NewRecorder(), NewStreamingRecorder()
	var kept, streamed []JobResult
	keep.Observer = func(r JobResult) { kept = append(kept, r) }
	stream.Observer = func(r JobResult) { streamed = append(streamed, r) }
	both := func(f func(*Recorder)) { f(keep); f(stream) }
	rng := rand.New(rand.NewSource(1))
	var window []workload.Job
	maxTable := 0
	for i := 0; i < 100_000; i++ {
		id := i
		if i%1000 == 999 {
			id = 1_000_000_000 + i // spills to the overflow map
		}
		class := workload.Class(rng.Intn(2))
		j := wjob(id, float64(i), 50, 100+50*rng.Float64(), class)
		both(func(r *Recorder) { r.Submitted(j) })
		if rng.Intn(4) == 0 {
			both(func(r *Recorder) { r.Reject(j, "full") })
		} else {
			window = append(window, j)
		}
		if rng.Intn(50) == 0 && len(window) > 0 {
			k := window[rng.Intn(len(window))]
			both(func(r *Recorder) { r.Killed(k) })
		}
		for len(window) > 20 {
			k := rng.Intn(len(window))
			done := window[k]
			window = append(window[:k], window[k+1:]...)
			finish := done.Submit + 30 + 150*rng.Float64()
			both(func(r *Recorder) { r.Complete(done, finish, 50) })
		}
		maxTable = max(maxTable, len(stream.pendingDense))
	}
	both(func(r *Recorder) { r.Flush() })
	if got, want := stream.Summarize(), keep.Summarize(); got != want {
		t.Fatalf("streaming summary %+v, keeping summary %+v", got, want)
	}
	if stream.Pending() != keep.Pending() || len(streamed) != len(kept) {
		t.Fatalf("pending %d vs %d, observed %d vs %d results", stream.Pending(), keep.Pending(), len(streamed), len(kept))
	}
	for i := range kept {
		if streamed[i] != kept[i] {
			t.Fatalf("observed result %d: streaming %+v, keeping %+v", i, streamed[i], kept[i])
		}
	}
	if err := stream.ConservationError(); err != nil {
		t.Fatal(err)
	}
	if n := len(stream.Results()); n != 0 {
		t.Fatalf("streaming recorder kept %d results", n)
	}
	if maxTable > 1000 {
		t.Fatalf("streaming pending table grew to %d slots for a window of about 20 jobs", maxTable)
	}
}
