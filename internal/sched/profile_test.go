package sched

import (
	"math"
	"testing"
	"testing/quick"

	"clustersched/internal/sim"
)

func TestProfileEmptyIsAllFree(t *testing.T) {
	p := NewProfile(8)
	if p.Total() != 8 {
		t.Fatalf("Total = %d", p.Total())
	}
	for _, tm := range []float64{0, 1, 1e9} {
		if got := p.FreeAt(tm); got != 8 {
			t.Fatalf("FreeAt(%g) = %d", tm, got)
		}
	}
	if got := p.EarliestSlot(5, 100, 8); got != 5 {
		t.Fatalf("EarliestSlot = %v, want immediate", got)
	}
}

func TestProfileReserveAndQuery(t *testing.T) {
	p := NewProfile(8)
	p.Reserve(10, 20, 5)
	if got := p.FreeAt(9); got != 8 {
		t.Fatalf("FreeAt(9) = %d", got)
	}
	if got := p.FreeAt(10); got != 3 {
		t.Fatalf("FreeAt(10) = %d", got)
	}
	if got := p.FreeAt(19.9); got != 3 {
		t.Fatalf("FreeAt(19.9) = %d", got)
	}
	if got := p.FreeAt(20); got != 8 {
		t.Fatalf("FreeAt(20) = %d", got)
	}
}

func TestProfileEarliestSlotSkipsBusyWindow(t *testing.T) {
	p := NewProfile(8)
	p.Reserve(10, 20, 5)
	// 4 procs for duration 15 starting at 0 would span the busy window
	// where only 3 are free, so the earliest start is 20.
	if got := p.EarliestSlot(0, 15, 4); got != 20 {
		t.Fatalf("EarliestSlot = %v, want 20", got)
	}
	// 3 procs fit throughout.
	if got := p.EarliestSlot(0, 15, 3); got != 0 {
		t.Fatalf("EarliestSlot = %v, want 0", got)
	}
	// Short job fits before the window.
	if got := p.EarliestSlot(0, 10, 8); got != 0 {
		t.Fatalf("EarliestSlot = %v, want 0 (finishes exactly at window start)", got)
	}
}

func TestProfileEarliestSlotAfterConstraint(t *testing.T) {
	p := NewProfile(4)
	p.Reserve(0, 100, 4)
	if got := p.EarliestSlot(50, 10, 1); got != 100 {
		t.Fatalf("EarliestSlot = %v, want 100", got)
	}
}

func TestProfileImpossibleRequest(t *testing.T) {
	p := NewProfile(4)
	if got := p.EarliestSlot(0, 10, 5); !math.IsInf(got, 1) {
		t.Fatalf("EarliestSlot = %v, want +Inf", got)
	}
}

func TestProfileOverReservationPanics(t *testing.T) {
	p := NewProfile(4)
	p.Reserve(0, 10, 4)
	defer func() {
		if recover() == nil {
			t.Error("over-reservation did not panic")
		}
	}()
	p.Reserve(5, 6, 1)
}

func TestProfileBadReservationPanics(t *testing.T) {
	p := NewProfile(4)
	defer func() {
		if recover() == nil {
			t.Error("inverted interval did not panic")
		}
	}()
	p.Reserve(10, 5, 1)
}

func TestProfileStackedReservations(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(0, 10, 3)
	p.Reserve(5, 15, 3)
	p.Reserve(8, 12, 3)
	if got := p.FreeAt(9); got != 1 {
		t.Fatalf("FreeAt(9) = %d, want 1", got)
	}
	if got := p.FreeAt(11); got != 4 {
		t.Fatalf("FreeAt(11) = %d, want 4", got)
	}
	if got := p.EarliestSlot(0, 5, 9); got != 15 {
		t.Fatalf("EarliestSlot = %v, want 15", got)
	}
}

func TestProfileSlotThenReserveProperty(t *testing.T) {
	// Whatever EarliestSlot returns must actually be reservable, and the
	// slot must really be free throughout.
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		p := NewProfile(16)
		for i := 0; i < 10; i++ {
			procs := 1 + r.Intn(16)
			dur := 1 + r.Float64()*50
			after := r.Float64() * 100
			start := p.EarliestSlot(after, dur, procs)
			if math.IsInf(start, 1) || start < after {
				return false
			}
			if !p.fits(start, start+dur, procs) {
				return false
			}
			p.Reserve(start, start+dur, procs)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewProfilePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProfile(0) did not panic")
		}
	}()
	NewProfile(0)
}

// referenceEarliestSlot is the quadratic planner EarliestSlot replaced:
// it tries `after` and every later step boundary in turn and re-checks
// each candidate's whole window. It is the oracle the one-pass sweep is
// held to.
func (p *Profile) referenceEarliestSlot(after, duration float64, procs int) float64 {
	if procs > p.total {
		return math.Inf(1)
	}
	if duration <= 0 {
		duration = 0
	}
	// Candidate start times: `after` and every step boundary beyond it.
	candidates := []float64{after}
	for _, s := range p.steps {
		if s.t > after {
			candidates = append(candidates, s.t)
		}
	}
	for _, start := range candidates {
		if p.fits(start, start+duration, procs) {
			return start
		}
	}
	// Beyond the last step everything is as free as the final state, which
	// fits because procs <= total and the last step's free must return to
	// total once all reservations expire. Defensive fallback:
	last := after
	if n := len(p.steps); n > 0 {
		last = math.Max(after, p.steps[n-1].t)
	}
	return last
}

// fits reports whether procs processors are free throughout [start, end).
func (p *Profile) fits(start, end float64, procs int) bool {
	if p.FreeAt(start) < procs {
		return false
	}
	for _, s := range p.steps {
		if s.t > start && s.t < end && s.free < procs {
			return false
		}
	}
	return true
}

// FreeAt returns the number of free processors at time t under the
// current plan.
func (p *Profile) FreeAt(t float64) int {
	free := p.total
	for _, s := range p.steps {
		if s.t > t {
			break
		}
		free = s.free
	}
	return free
}

// reserveClamped reserves [start, start+length) for at most procs
// processors, fewer if the window has fewer free, and nothing if it has
// none or the window is empty. It builds valid random profiles.
func (p *Profile) reserveClamped(start, length float64, procs int) {
	end := start + length
	if !(end > start) {
		return
	}
	free := p.FreeAt(start)
	for _, s := range p.steps {
		if s.t > start && s.t < end {
			free = min(free, s.free)
		}
	}
	if procs = min(procs, free); procs > 0 {
		p.Reserve(start, end, procs)
	}
}

func TestEarliestSlotMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRNG(seed)
		total := 1 + r.Intn(16)
		p := NewProfile(total)
		// Reservations at integer times, so boundaries coincide.
		for i, n := 0, r.Intn(12); i < n; i++ {
			p.reserveClamped(float64(r.Intn(60)), float64(1+r.Intn(25)), 1+r.Intn(total))
		}
		for q := 0; q < 200; q++ {
			// after before, on and past the steps, at and between integers.
			after := float64(r.Intn(100) - 10)
			if r.Bool(0.3) {
				after += r.Float64()
			}
			duration := 0.0
			switch r.Intn(3) {
			case 1:
				duration = float64(1 + r.Intn(40))
			case 2:
				duration = r.Float64() * 40
			}
			procs := 1 + r.Intn(total+1)
			got := p.EarliestSlot(after, duration, procs)
			want := p.referenceEarliestSlot(after, duration, procs)
			if got != want {
				t.Fatalf("seed %d: EarliestSlot(%v, %v, %d) = %v, reference %v; steps %v", seed, after, duration, procs, got, want, p.steps)
			}
		}
	}
}

// FuzzEarliestSlot holds the sweep to the reference on fuzzed profiles.
// Every three bytes of resv are one reservation: start, length, procs.
func FuzzEarliestSlot(f *testing.F) {
	f.Add(uint8(8), []byte{}, 5.0, 100.0, uint8(8))
	f.Add(uint8(8), []byte{10, 10, 5}, 0.0, 15.0, uint8(4))
	f.Add(uint8(8), []byte{10, 10, 5}, 0.0, 10.0, uint8(8))
	f.Add(uint8(10), []byte{0, 10, 3, 5, 10, 3, 8, 4, 3}, 0.0, 5.0, uint8(9))
	f.Add(uint8(4), []byte{0, 100, 4}, 50.0, 10.0, uint8(1))
	f.Add(uint8(4), []byte{0, 10, 2, 10, 10, 3, 20, 5, 1}, 10.0, 0.0, uint8(2))
	f.Fuzz(func(t *testing.T, total uint8, resv []byte, after, duration float64, procs uint8) {
		if math.IsNaN(after) || math.IsInf(after, 0) || math.IsNaN(duration) {
			t.Skip("callers pass finite instants and non-NaN durations")
		}
		n := 1 + int(total%32)
		p := NewProfile(n)
		for i := 0; i+2 < len(resv); i += 3 {
			p.reserveClamped(float64(resv[i]), float64(resv[i+1]), 1+int(resv[i+2])%n)
		}
		k := int(procs) % (n + 2) // 0 through total+1
		got := p.EarliestSlot(after, duration, k)
		if want := p.referenceEarliestSlot(after, duration, k); got != want {
			t.Fatalf("EarliestSlot(%v, %v, %d) = %v, reference %v; steps %v", after, duration, k, got, want, p.steps)
		}
	})
}
