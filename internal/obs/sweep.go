package obs

import (
	"sort"
	"sync"
)

// Options selects which observability layers a sweep collects.
type Options struct {
	Trace   bool
	Metrics bool
	Audit   bool
}

// Any reports whether at least one layer is enabled.
func (o Options) Any() bool { return o.Trace || o.Metrics || o.Audit }

// Run is the per-cell observability bundle: a private tracer, registry
// and audit log for one simulation run on one worker goroutine. Fields
// for disabled layers are nil, and consumers nil-check each one, so the
// bundle composes with the zero-overhead contract.
type Run struct {
	Trace   *Buffer
	Metrics *Registry
	Sim     *SimMetrics
	Audit   *AuditLog

	run string // tag ordering this bundle in the deterministic merge
}

// Sweep coordinates observability across the concurrent workers of a
// parameter sweep. NewRun hands each cell a private unsynchronized
// bundle; Finish banks completed bundles under one lock. Output order is
// deterministic — events and decisions sort by (run tag, sequence), and
// per-run registries are merged in run-tag order at Registry time (float
// summation is not associative, so merging in completion order would leak
// worker scheduling into the last ulp of histogram sums) — so results do
// not depend on worker count or completion order.
type Sweep struct {
	opt Options

	mu        sync.Mutex
	events    []Event
	regs      []taggedRegistry
	decisions []Decision
}

// taggedRegistry is one finished run's registry with the tag that orders
// it during the deterministic merge.
type taggedRegistry struct {
	run string
	reg *Registry
}

// NewSweep returns a collector for the enabled layers. Returns nil when
// no layer is enabled, so callers can carry a nil *Sweep to mean
// "observability off".
func NewSweep(opt Options) *Sweep {
	if !opt.Any() {
		return nil
	}
	return &Sweep{opt: opt}
}

// NewRun builds a private bundle for one cell. Safe to call from any
// worker goroutine (no shared state is touched).
func (s *Sweep) NewRun(run, policy string) *Run {
	r := &Run{run: run}
	if s.opt.Trace {
		r.Trace = NewBuffer(run, policy)
	}
	if s.opt.Metrics {
		r.Metrics = NewRegistry()
		r.Sim = NewSimMetrics(r.Metrics)
	}
	if s.opt.Audit {
		r.Audit = NewAuditLog(run, policy)
	}
	return r
}

// Finish banks a completed bundle into the sweep. Call exactly once per
// successful run; discard the bundle without calling Finish when the run
// errored, so partial observations never pollute the output.
func (s *Sweep) Finish(r *Run) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Trace != nil {
		s.events = append(s.events, r.Trace.Events()...)
	}
	if r.Metrics != nil {
		s.regs = append(s.regs, taggedRegistry{run: r.run, reg: r.Metrics})
	}
	if r.Audit != nil {
		s.decisions = append(s.decisions, r.Audit.Decisions()...)
	}
	return nil
}

// Events returns all merged trace events sorted by (run tag, sequence).
func (s *Sweep) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Event(nil), s.events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Decisions returns all merged audit decisions sorted by (run tag,
// sequence).
func (s *Sweep) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Decision(nil), s.decisions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Registry merges every finished run's registry in run-tag order and
// returns the result, or nil when metrics were not enabled. The stable
// merge order makes the float sums bit-identical across worker counts.
// Merge errors (histogram bound mismatches) are impossible when every
// registry came from NewSimMetrics and are reported as a panic.
func (s *Sweep) Registry() *Registry {
	if !s.opt.Metrics {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	regs := append([]taggedRegistry(nil), s.regs...)
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].run < regs[j].run })
	merged := NewRegistry()
	for _, tr := range regs {
		if err := merged.Merge(tr.reg); err != nil {
			panic("obs: sweep registries diverged: " + err.Error())
		}
	}
	return merged
}
