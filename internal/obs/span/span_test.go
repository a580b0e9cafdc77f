package span

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestStageNamesRoundTrip(t *testing.T) {
	names := Names()
	if len(names) != NumStages {
		t.Fatalf("Names() returned %d names, want %d", len(names), NumStages)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Fatalf("duplicate stage name %q", n)
		}
		seen[n] = true
		if Stage(i).String() != n {
			t.Fatalf("Stage(%d).String() = %q, want %q", i, Stage(i).String(), n)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

func TestWireDropsZeroStages(t *testing.T) {
	sp := &Span{
		Seq:     7,
		Kind:    "admit",
		Tenant:  "t0",
		Outcome: "accepted",
		Start:   time.Unix(100, 0),
		Total:   3 * time.Millisecond,
	}
	sp.Dur[StageQueue] = 1 * time.Millisecond
	sp.Dur[StageDecide] = 2 * time.Millisecond
	j := sp.Wire()
	if len(j.Stages) != 2 {
		t.Fatalf("Stages has %d entries, want 2: %v", len(j.Stages), j.Stages)
	}
	if j.Stages["queue"] != 0.001 || j.Stages["decide"] != 0.002 {
		t.Fatalf("stage values wrong: %v", j.Stages)
	}
	// The wire form must survive a JSON round trip unchanged.
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back JSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seq != 7 || back.Outcome != "accepted" || back.Stages["decide"] != 0.002 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(64) // 4 sub-rings x 16 slots
	if r.Cap() != 64 {
		t.Fatalf("Cap = %d, want 64", r.Cap())
	}
	const n = 1000
	for i := 0; i < n; i++ {
		r.Record(&Span{Seq: i, Start: time.Unix(int64(i), 0)})
	}
	if got := r.Recorded(); got != n {
		t.Fatalf("Recorded = %d, want %d", got, n)
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("Snapshot holds %d spans after wraparound, want 64", len(snap))
	}
	// Round-robin ring selection keeps exactly the newest 64 records.
	for _, sp := range snap {
		if sp.Seq < n-64 {
			t.Fatalf("snapshot retained stale span seq %d (oldest expected %d)", sp.Seq, n-64)
		}
	}
	// Snapshot is ordered oldest-first.
	for i := 1; i < len(snap); i++ {
		if snap[i].Start.Before(snap[i-1].Start) {
			t.Fatalf("snapshot out of order at %d: %v before %v", i, snap[i].Start, snap[i-1].Start)
		}
	}
}

// TestRecorderConcurrent hammers Record from many goroutines while a
// reader snapshots, and is run under -race in CI: the atomic publish
// discipline must hold.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range r.Snapshot() {
				if sp.Kind != "admit" {
					panic("observed partially published span")
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := &Span{Seq: w*perWriter + i, Kind: "admit", Start: time.Unix(int64(i), 0)}
				sp.Dur[StageDecide] = time.Microsecond
				r.Record(sp)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish first; then stop the reader.
	for r.Recorded() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
	if got := len(r.Snapshot()); got != r.Cap() {
		t.Fatalf("full ring snapshot has %d spans, want %d", got, r.Cap())
	}
}

// TestNilRecorderZeroAlloc pins the disabled-tracing contract: the hot
// path's span guards — a nil Recorder and a nil *Span — must cost zero
// allocations per request.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	var sp *Span
	n := testing.AllocsPerRun(1000, func() {
		r.Record(sp)
		if r.Snapshot() != nil {
			t.Fatal("nil recorder returned spans")
		}
		if r.Cap() != 0 || r.Recorded() != 0 {
			t.Fatal("nil recorder reported capacity")
		}
	})
	if n != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", n)
	}
}
