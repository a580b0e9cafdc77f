package serve

// Per-request span tracing for the serving path. With Config.Spans set,
// every /admit and /node request carries a *span.Span from handler
// entry through the pipeline — queue wait, durable group-commit gather,
// WAL append, the covering fsync, virtual-time advance, policy decide,
// ack — and the finished span lands in a lock-free ring served by
// /debug/spans. Stage boundaries are contiguous timestamps, so a span's
// stages sum to (approximately) its total wall time and cmd/servetrace
// can attribute a p99 without unexplained gaps.
//
// The discipline mirrors PR 5's observability rule: spans must be
// decision-invisible (byte-identical audit/checkpoint/WAL-replay, see
// spans_test.go) and free when disabled — the hot path pays nil checks
// only, which TestNilRecorderZeroAlloc and the spans-off benchmark
// variants pin.
//
// Ownership: exactly one goroutine writes a span at a time, and every
// handoff (queue channel, pipeline ring, response channel) is a
// happens-before edge. The span is published to the ring only after its
// final field is written, so readers always see immutable spans.

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"clustersched/internal/obs"
	"clustersched/internal/obs/span"
)

// stageBounds buckets per-stage latencies on /metrics. Serving stages
// range from sub-microsecond (prep) to fsync-dominated milliseconds.
var stageBounds = []float64{
	0.000005, 0.00001, 0.00005, 0.0001, 0.0005,
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1,
}

// beginSpan starts a span for one request at handler entry, or returns
// nil when tracing is off — the single branch the disabled path pays.
func (s *Server) beginSpan(kind, tenant string, t0 time.Time, lvl int) *span.Span {
	if s.spans == nil {
		return nil
	}
	return &span.Span{Kind: kind, Tenant: tenant, ShedLevel: lvl, Start: t0}
}

// recordRefused finishes a span for a request refused before it reached
// the apply worker (shed, quota, queue full, draining): the whole wall
// time is the prep stage.
func (s *Server) recordRefused(sp *span.Span, outcome string) {
	if sp == nil {
		return
	}
	sp.Outcome = outcome
	sp.Total = s.now().Sub(sp.Start)
	sp.Dur[span.StagePrep] = sp.Total
	s.stages.observe(sp)
	s.spans.Record(sp)
}

// finishSpan closes a span answered by the apply worker and publishes
// it. The ack stage runs from the worker's answer timestamp to now
// (response written).
func (s *Server) finishSpan(p *pending, a applied, outcome string) {
	sp := p.sp
	if sp == nil {
		return
	}
	end := s.now()
	if !a.finished.IsZero() {
		sp.Dur[span.StageAck] = end.Sub(a.finished)
	}
	sp.Seq, sp.T = a.op.Seq, a.op.T
	sp.Outcome = outcome
	sp.Total = end.Sub(sp.Start)
	s.stages.observe(sp)
	s.spans.Record(sp)
}

// markDequeued stamps the queue-wait stage when the apply worker pops a
// request.
func (s *Server) markDequeued(p *pending) {
	if p.sp == nil {
		return
	}
	now := s.now()
	p.deq = now
	p.sp.Dur[span.StageQueue] = now.Sub(p.enq)
}

// stageStats aggregates finished spans into per-stage histograms under
// its own small lock (spans finish on handler goroutines; the registry
// lives under the state lock), carrying the slowest observation per
// stage — with its WAL index — as the scrape-window exemplar. The
// /metrics scrape drains it into the registry via Histogram.Absorb, so
// exported histograms grow monotonically while the collector stays
// contention-local.
type stageStats struct {
	mu    sync.Mutex
	stage [span.NumStages]*obs.Histogram
	total *obs.Histogram
	spans uint64
	// exDur/exWAL track the slowest span per stage since the last
	// drain; exWAL is that span's WAL index (0 = none).
	exDur [span.NumStages]time.Duration
	exWAL [span.NumStages]uint64
}

func newStageStats() *stageStats {
	st := &stageStats{total: obs.NewHistogram(stageBounds)}
	for i := range st.stage {
		st.stage[i] = obs.NewHistogram(stageBounds)
	}
	return st
}

// observe folds one finished span in. Nil-safe: a nil stageStats (spans
// disabled) ignores the call.
func (st *stageStats) observe(sp *span.Span) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.spans++
	st.total.Observe(sp.Total.Seconds())
	for i, d := range sp.Dur {
		if d <= 0 {
			continue
		}
		st.stage[i].Observe(d.Seconds())
		if d > st.exDur[i] {
			st.exDur[i] = d
			st.exWAL[i] = sp.WALIndex
		}
	}
}

// drainTo folds the window's observations into the registry histograms
// and resets the collectors. Callers hold the state lock.
func (st *stageStats) drainTo(reg *obs.Registry) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	reg.Counter("serve_spans_recorded_total", "Finished request spans recorded.").Add(float64(st.spans))
	st.spans = 0
	fold := func(name, help string, h *obs.Histogram, exDur time.Duration, exWAL uint64) {
		dst := reg.Histogram(name, help, stageBounds)
		if exDur > 0 && exWAL > 0 {
			h.SetExemplar("wal_index", strconv.FormatUint(exWAL, 10), exDur.Seconds())
		}
		// Bounds are shared by construction; Absorb cannot fail.
		_ = dst.Absorb(h)
		h.Reset()
	}
	fold("serve_span_total_seconds", "Request wall time from handler entry to response written.",
		st.total, 0, 0)
	for i := range st.stage {
		name := "serve_stage_" + span.Stage(i).String() + "_seconds"
		fold(name, "Time spent in the "+span.Stage(i).String()+" serving stage.",
			st.stage[i], st.exDur[i], st.exWAL[i])
		st.exDur[i], st.exWAL[i] = 0, 0
	}
}

// tenantLabel normalizes the wire tenant for metric labels.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "none"
	}
	return tenant
}

// tenantCell is one tenant's cumulative outcome counts.
type tenantCell struct {
	admits, rejects, quota uint64
}

// tenantStats counts per-tenant outcomes under its own lock, capped: at
// most max distinct tenants get their own label, everyone past that
// folds into "other" so a tenant-id flood cannot blow up /metrics
// cardinality. Always on (satellite: multi-tenant admitload runs must
// be attributable), independent of span tracing.
type tenantStats struct {
	mu    sync.Mutex
	max   int
	cells map[string]*tenantCell
}

func newTenantStats(max int) *tenantStats {
	return &tenantStats{max: max, cells: make(map[string]*tenantCell)}
}

// cellLocked resolves the cell for a tenant, folding overflow tenants
// into "other".
func (t *tenantStats) cellLocked(tenant string) *tenantCell {
	lbl := tenantLabel(tenant)
	if c, ok := t.cells[lbl]; ok {
		return c
	}
	if len(t.cells) >= t.max {
		lbl = "other"
		if c, ok := t.cells[lbl]; ok {
			return c
		}
	}
	c := &tenantCell{}
	t.cells[lbl] = c
	return c
}

// admit counts a policy decision for tenant.
func (t *tenantStats) admit(tenant string, accepted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cellLocked(tenant)
	if accepted {
		c.admits++
	} else {
		c.rejects++
	}
}

// quotaDenied counts a 429 for tenant.
func (t *tenantStats) quotaDenied(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cellLocked(tenant).quota++
}

// syncTo sets the labeled counter families to the cells' totals. Callers hold the state lock (the registry is not
// goroutine-safe); tenantStats' own lock orders it against writers.
func (t *tenantStats) syncTo(reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	admits := reg.CounterVec("serve_tenant_admits_total", "Jobs accepted by the policy, by tenant.", "tenant")
	rejects := reg.CounterVec("serve_tenant_rejects_total", "Jobs rejected by the policy, by tenant.", "tenant")
	quota := reg.CounterVec("serve_tenant_quota_denials_total", "Requests denied 429 by tenant quota, by tenant.", "tenant")
	names := make([]string, 0, len(t.cells))
	for n := range t.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := t.cells[n]
		// A series appears only once its count is nonzero, so idle
		// tenants never inflate the exposition.
		if c.admits > 0 {
			admits.With(n).Set(float64(c.admits))
		}
		if c.rejects > 0 {
			rejects.With(n).Set(float64(c.rejects))
		}
		if c.quota > 0 {
			quota.With(n).Set(float64(c.quota))
		}
	}
}
