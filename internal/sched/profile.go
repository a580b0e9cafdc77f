// Package sched provides related-work comparison schedulers beyond the
// paper's three policies: FCFS, EASY and conservative backfilling, and a
// QoPS-style slack admission control. The paper's §2 positions LibraRisk
// against these families; having them runnable makes the comparison
// concrete. All run on the space-shared substrate and plan ahead from
// runtime estimates via a processor-availability profile.
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Profile is a processor-availability timeline: how many processors are
// free at each future instant, given planned (estimated) completions and
// reservations. It supports the two queries backfilling needs: "when is
// the earliest slot for (procs, duration) at or after t?" and "reserve
// it".
//
// The profile counts processors rather than tracking identities, which is
// exact for homogeneous clusters (the paper's setting) and a standard
// approximation otherwise.
type Profile struct {
	total int
	// steps are changes to availability: at steps[i].t, free becomes
	// steps[i].free. Sorted by t; the state before steps[0] is total.
	steps []profileStep
}

type profileStep struct {
	t    float64
	free int
}

// NewProfile returns an all-free profile for a cluster of total
// processors.
func NewProfile(total int) *Profile {
	if total <= 0 {
		panic(fmt.Sprintf("sched: profile with %d processors", total))
	}
	return &Profile{total: total}
}

// Total returns the cluster size the profile covers.
func (p *Profile) Total() int { return p.total }

// Reserve blocks procs processors during [start, end). It panics if the
// interval is invalid; it is the caller's job to query EarliestSlot first,
// so over-reservation indicates a planner bug and must not pass silently.
func (p *Profile) Reserve(start, end float64, procs int) {
	if end <= start || procs <= 0 {
		panic(fmt.Sprintf("sched: bad reservation [%g, %g) x%d", start, end, procs))
	}
	p.ensureStep(start)
	p.ensureStep(end)
	for i := range p.steps {
		if p.steps[i].t >= start && p.steps[i].t < end {
			p.steps[i].free -= procs
			if p.steps[i].free < 0 {
				panic(fmt.Sprintf("sched: over-reservation at t=%g", p.steps[i].t))
			}
		}
	}
}

// ensureStep inserts a step boundary at t carrying the availability in
// force just before it.
func (p *Profile) ensureStep(t float64) {
	idx := sort.Search(len(p.steps), func(i int) bool { return p.steps[i].t >= t })
	if idx < len(p.steps) && p.steps[idx].t == t {
		return
	}
	free := p.total
	if idx > 0 {
		free = p.steps[idx-1].free
	}
	p.steps = append(p.steps, profileStep{})
	copy(p.steps[idx+1:], p.steps[idx:])
	p.steps[idx] = profileStep{t: t, free: free}
}

// EarliestSlot returns the earliest time >= after at which procs
// processors stay free for duration. Returns +Inf when procs exceeds the
// cluster size.
//
// It is one forward sweep over the steps. The candidates are after and
// every later step boundary. When the window of candidate start meets a
// step with fewer than procs free (the step in force at start included),
// every candidate up to that step fails too, so the next candidate is the
// step after it. The last step returns every processor, so the sweep
// always ends on a start that fits.
func (p *Profile) EarliestSlot(after, duration float64, procs int) float64 {
	if procs > p.total {
		return math.Inf(1)
	}
	if duration <= 0 {
		duration = 0
	}
	start, ok := after, true // ok: no step met so far lacks procs free
	for _, s := range p.steps {
		switch {
		case s.t <= after: // in force at after
			ok = s.free >= procs
		case !ok: // the previous candidate failed: s is the next
			start, ok = s.t, s.free >= procs
		case s.t >= start+duration: // the window ended before s
			return start
		default:
			ok = s.free >= procs
		}
	}
	return start
}
