package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"

	"clustersched/internal/obs/span"
	"clustersched/internal/workload"
)

// AdmitRequest is the JSON body of POST /admit: one job asking to enter
// the cluster. Runtime doubles as the estimate when Estimate is absent
// (a perfectly accurate user). T pins the virtual submit time; omitted,
// the wall clock (scaled by Config.TimeScale) supplies it.
type AdmitRequest struct {
	Tenant   string   `json:"tenant,omitempty"`
	NumProc  int      `json:"numproc"`
	Runtime  float64  `json:"runtime"`
	Estimate float64  `json:"estimate,omitempty"`
	Deadline float64  `json:"deadline"`
	Class    string   `json:"class,omitempty"` // "high" (default) or "low"/"sheddable"
	T        *float64 `json:"t,omitempty"`
}

// AdmitResponse is the decision for an applied admission request.
type AdmitResponse struct {
	Job      int     `json:"job"`
	T        float64 `json:"t"`
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason,omitempty"`
	// RetryAfterS accompanies rejections: the cluster's estimate of when
	// its state next changes (the next believed completion).
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// NodeRequest is the JSON body of POST /node: an operator (or chaos
// driver) crashing or repairing one node.
type NodeRequest struct {
	Node int      `json:"node"`
	Down bool     `json:"down"`
	T    *float64 `json:"t,omitempty"`
}

// NodeResponse reports an applied node operation.
type NodeResponse struct {
	Node   int     `json:"node"`
	Down   bool    `json:"down"`
	T      float64 `json:"t"`
	Killed int     `json:"killed"`
}

// StateResponse is the GET /state snapshot.
type StateResponse struct {
	Policy      string  `json:"policy"`
	VirtualTime float64 `json:"virtual_time"`
	Nodes       int     `json:"nodes"`
	NodesUp     int     `json:"nodes_up"`
	Running     int     `json:"running"`
	QueueLen    int     `json:"queue_len"`
	QueueCap    int     `json:"queue_cap"`
	ShedLevel   int     `json:"shed_level"`
	Draining    bool    `json:"draining"`
	OpsApplied  int     `json:"ops_applied"`
	Admitted    uint64  `json:"admitted"`
	Rejected    uint64  `json:"rejected"`
	Err         string  `json:"err,omitempty"`
}

// errorResponse is the body of every non-200 answer.
type errorResponse struct {
	Error       string  `json:"error"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// maxBodyBytes bounds request bodies; admission requests are a few
// hundred bytes, so anything larger is abuse.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP mux:
//
//	POST /admit           — admission request (the hot path)
//	POST /node            — crash/repair a node (admin/chaos)
//	GET  /state           — consistent cluster snapshot
//	GET  /metrics         — Prometheus text exposition
//	GET  /healthz         — liveness, answers at every shed level
//	GET  /debug/spans     — recent request spans + slowest-K (JSON)
//	GET  /debug/requests  — recent spans filtered by ?tenant=/?outcome=
//	GET  /debug/shed      — shed-ladder transition history (JSON)
//	GET  /debug/pprof/*   — net/http/pprof profiles
//
// The /debug family, like /healthz and /metrics, deliberately answers
// at every shed level: a service that sheds its own diagnostics under
// overload cannot be debugged exactly when debugging matters.
//
// Every handler runs under panic isolation: a panicking request answers
// 500 and increments serve_panics_total, and the daemon keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /admit", s.recovering(s.handleAdmit))
	mux.HandleFunc("POST /node", s.recovering(s.handleNode))
	mux.HandleFunc("GET /state", s.recovering(s.handleState))
	mux.HandleFunc("GET /metrics", s.recovering(s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.recovering(s.handleHealthz))
	mux.HandleFunc("GET /debug/spans", s.recovering(s.handleDebugSpans))
	mux.HandleFunc("GET /debug/requests", s.recovering(s.handleDebugRequests))
	mux.HandleFunc("GET /debug/shed", s.recovering(s.handleDebugShed))
	mux.HandleFunc("GET /debug/pprof/", s.recovering(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", s.recovering(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", s.recovering(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", s.recovering(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", s.recovering(pprof.Trace))
	return mux
}

// shedLevel queries the shed ladder with transition tracking, so every
// level change the service acts on lands in the transition log.
func (s *Server) shedLevel() int {
	return s.shed.levelTracked(len(s.queue), cap(s.queue))
}

// recovering wraps a handler with per-request panic isolation: one bad
// request must not take down the daemon (or the cluster state, which is
// only ever mutated by the apply worker, not by handlers).
func (s *Server) recovering(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.cPanics.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("internal error: %v", p)}, 0)
			}
		}()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, body any, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// parseClass maps the wire spelling onto workload.Class.
func parseClass(s string) (workload.Class, error) {
	switch s {
	case "", "high", "high-urgency":
		return workload.HighUrgency, nil
	case "low", "low-urgency", "sheddable":
		return workload.LowUrgency, nil
	}
	return 0, fmt.Errorf("unknown class %q (want high, low or sheddable)", s)
}

// validateAdmit normalizes req into an Op, or explains why it is
// malformed. The virtual submit time is left for the worker when T is
// absent.
func validateAdmit(req *AdmitRequest) (Op, bool, float64, error) {
	class, err := parseClass(req.Class)
	if err != nil {
		return Op{}, false, 0, err
	}
	if req.Estimate == 0 {
		req.Estimate = req.Runtime
	}
	hasT, reqT := false, 0.0
	if req.T != nil {
		t := *req.T
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return Op{}, false, 0, fmt.Errorf("invalid t %g", t)
		}
		hasT, reqT = true, t
	}
	op := Op{
		T:        reqT,
		Tenant:   req.Tenant,
		NumProc:  req.NumProc,
		Runtime:  req.Runtime,
		Estimate: req.Estimate,
		Deadline: req.Deadline,
		Class:    int(class),
	}
	probe := op.job()
	probe.ID = 1 // placeholder; the worker assigns the real sequence
	if err := checkAdmitJob(probe); err != nil {
		return Op{}, false, 0, err
	}
	return op, hasT, reqT, nil
}

// checkAdmitJob holds an admit op's job to the rules every admission
// crosses, live or recovered: finite quantities, a known class, and a job
// the simulator accepts.
func checkAdmitJob(j workload.Job) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"runtime", j.Runtime}, {"estimate", j.TraceEstimate}, {"deadline", j.Deadline}} {
		if math.IsInf(f.v, 0) {
			return fmt.Errorf("non-finite %s", f.name)
		}
	}
	if j.Class != workload.HighUrgency && j.Class != workload.LowUrgency {
		return fmt.Errorf("unknown class %d", j.Class)
	}
	return j.Validate()
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var t0 time.Time
	if s.spans != nil {
		t0 = s.now()
	}
	s.cRequests.Inc()
	var req AdmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()}, 0)
		return
	}
	op, hasT, reqT, err := validateAdmit(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()}, 0)
		return
	}
	lvl := s.shedLevel()
	sp := s.beginSpan("admit", op.Tenant, t0, lvl)
	switch {
	case lvl >= shedAll:
		s.cShedAll.Inc()
		ra := s.retryAfter()
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "overloaded: shedding all admission traffic", RetryAfterS: ra.Seconds()}, ra)
		s.recordRefused(sp, "shed-all")
		return
	case lvl >= shedClass && workload.Class(op.Class) == workload.LowUrgency:
		s.cShedClass.Inc()
		ra := s.retryAfter()
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "overloaded: shedding sheddable-class traffic", RetryAfterS: ra.Seconds()}, ra)
		s.recordRefused(sp, "shed-class")
		return
	}
	if s.quotas != nil {
		if ok, ra := s.quotas.take(op.Tenant); !ok {
			s.cQuotaDenied.Inc()
			s.tenants.quotaDenied(op.Tenant)
			writeJSON(w, http.StatusTooManyRequests,
				errorResponse{Error: "tenant quota exhausted", RetryAfterS: ra.Seconds()}, ra)
			s.recordRefused(sp, "quota")
			return
		}
	}
	if s.audit != nil && lvl >= shedAudit {
		s.cAuditShed.Inc()
	}
	p := &pending{
		op:       op,
		hasT:     hasT,
		reqT:     reqT,
		deadline: s.now().Add(s.cfg.RequestTimeout),
		resp:     make(chan applied, 1),
		sp:       sp,
	}
	p.op.Audited = s.audit != nil && lvl < shedAudit
	s.dispatch(w, r, p, func(a applied) (int, any) {
		resp := AdmitResponse{
			Job:      a.op.Seq,
			T:        a.op.T,
			Accepted: a.out.accepted,
			Reason:   a.out.reason,
		}
		if !a.out.accepted {
			resp.RetryAfterS = s.retryAfter().Seconds()
		}
		return http.StatusOK, resp
	})
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	var t0 time.Time
	if s.spans != nil {
		t0 = s.now()
	}
	s.cRequests.Inc()
	var req NodeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()}, 0)
		return
	}
	if err := s.checkNode(req.Node); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()}, 0)
		return
	}
	lvl := s.shedLevel()
	sp := s.beginSpan("node", "", t0, lvl)
	if lvl >= shedAll {
		s.cShedAll.Inc()
		ra := s.retryAfter()
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "overloaded: shedding all admission traffic", RetryAfterS: ra.Seconds()}, ra)
		s.recordRefused(sp, "shed-all")
		return
	}
	hasT, reqT := false, 0.0
	if req.T != nil {
		t := *req.T
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid t %g", t)}, 0)
			return
		}
		hasT, reqT = true, t
	}
	p := &pending{
		op:       Op{Kind: "node", Node: req.Node, Down: req.Down},
		hasT:     hasT,
		reqT:     reqT,
		deadline: s.now().Add(s.cfg.RequestTimeout),
		resp:     make(chan applied, 1),
		sp:       sp,
	}
	// Node ops take the same audit slow-path decision as admissions so a
	// replayed checkpoint sheds exactly what the live run shed.
	p.op.Audited = s.audit != nil && lvl < shedAudit
	s.dispatch(w, r, p, func(a applied) (int, any) {
		return http.StatusOK, NodeResponse{Node: a.op.Node, Down: a.op.Down, T: a.op.T, Killed: a.out.killed}
	})
}

// checkNode refuses a node index outside the cluster.
func (s *Server) checkNode(node int) error {
	if node < 0 || node >= s.cfg.Nodes {
		return fmt.Errorf("node %d out of range [0,%d)", node, s.cfg.Nodes)
	}
	return nil
}

// dispatch enqueues p and waits for the worker's answer, translating
// intake refusals and expiry into their status codes. render shapes the
// 200 body from the applied result.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, p *pending, render func(applied) (int, any)) {
	if p.sp != nil {
		// Prep ends where the queue stage begins: the enqueue attempt.
		p.enq = s.now()
		p.sp.Dur[span.StagePrep] = p.enq.Sub(p.sp.Start)
	}
	if err := s.enqueue(p); err != nil {
		ra := s.retryAfter()
		switch err {
		case errDraining:
			s.cDrainDenied.Inc()
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "draining: not accepting new work", RetryAfterS: ra.Seconds()}, ra)
			s.recordRefused(p.sp, "draining")
		default:
			s.cQueueFull.Inc()
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "admission queue full", RetryAfterS: ra.Seconds()}, ra)
			s.recordRefused(p.sp, "queue-full")
		}
		return
	}
	// The worker checks the deadline itself at dequeue; the handler waits
	// past it by one timeout's grace so a decision that was already being
	// applied still reaches the client instead of racing a local timer.
	guard := time.NewTimer(time.Until(p.deadline) + s.cfg.RequestTimeout)
	defer guard.Stop()
	select {
	case a := <-p.resp:
		if a.timedOut {
			ra := s.retryAfter()
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "admission deadline exceeded while queued", RetryAfterS: ra.Seconds()}, ra)
			s.finishSpan(p, a, "timeout")
			return
		}
		if a.walFailed {
			// Fail-stop: nothing was applied and nothing will be until the
			// daemon restarts over the log. No Retry-After — retrying
			// against a dead log is pointless.
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "durability failure: write-ahead log unavailable"}, 0)
			s.finishSpan(p, a, "wal-failed")
			return
		}
		status, body := render(a)
		writeJSON(w, status, body, 0)
		if p.sp != nil {
			outcome := "applied"
			if a.op.Kind == "" {
				if a.out.accepted {
					outcome = "accepted"
				} else {
					outcome = "rejected"
				}
			}
			s.finishSpan(p, a, outcome)
		}
	case <-r.Context().Done():
		// Client gone. The response channel is buffered, so the worker's
		// eventual answer is dropped without blocking anything. The span
		// is NOT recorded: the worker still owns it, and publishing here
		// would race its stage writes.
	case <-guard.C:
		ra := s.retryAfter()
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "admission decision overdue", RetryAfterS: ra.Seconds()}, ra)
		// Span not recorded, same ownership rule as above.
	}
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	lvl := s.shedLevel()
	if lvl >= shedAll {
		ra := s.retryAfter()
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "overloaded: state snapshots shed", RetryAfterS: ra.Seconds()}, ra)
		return
	}
	s.intake.RLock()
	draining := s.draining
	s.intake.RUnlock()
	s.mu.RLock()
	st := StateResponse{
		Policy:      s.pol.Name(),
		VirtualTime: s.eng.Now(),
		Nodes:       s.cfg.Nodes,
		QueueLen:    len(s.queue),
		QueueCap:    cap(s.queue),
		ShedLevel:   lvl,
		Draining:    draining,
		OpsApplied:  s.opsApplied,
		Admitted:    s.cAdmitted.v.Load(),
		Rejected:    s.cRejected.v.Load(),
	}
	if s.ts != nil {
		st.NodesUp = s.ts.UpNodes()
		st.Running = s.ts.Running()
	} else {
		st.NodesUp = s.ss.UpNodes()
		st.Running = s.ss.Running()
	}
	if s.applyErr != nil {
		st.Err = s.applyErr.Error()
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, st, 0)
}

// handleMetrics serves the Prometheus text exposition. It stays up at
// every shed level deliberately: a service that sheds its own telemetry
// under overload cannot be diagnosed, and the scrape is one bounded
// write, not policy work.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.intake.RLock()
	draining := s.draining
	s.intake.RUnlock()
	s.mu.Lock()
	s.syncRegistryLocked(draining)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	err := s.reg.WritePrometheus(w)
	s.mu.Unlock()
	if err != nil {
		// The write failed mid-stream; nothing useful left to send.
		return
	}
}

// syncRegistryLocked sets the registry's counters from their cumulative
// sources (the HTTP-side atomics, the WAL's metrics, the shed ladder's
// transitions, the per-tenant cells) and its gauges from the state.
// Callers hold the write lock (the registry is not goroutine-safe by
// design — it lives inside the state partition).
func (s *Server) syncRegistryLocked(draining bool) {
	r := s.reg
	s.cRequests.syncTo(r.Counter("serve_requests_total", "Admission/node requests received."))
	s.cApplied.syncTo(r.Counter("serve_ops_applied_total", "Operations applied to the cluster."))
	s.cAdmitted.syncTo(r.Counter("serve_admitted_total", "Jobs accepted by the policy."))
	s.cRejected.syncTo(r.Counter("serve_rejected_total", "Jobs rejected by the policy."))
	s.cQuotaDenied.syncTo(r.Counter("serve_quota_denied_total", "Requests denied 429 by tenant quota."))
	s.cQueueFull.syncTo(r.Counter("serve_queue_full_total", "Requests denied 503 on a full admission queue."))
	s.cShedClass.syncTo(r.Counter("serve_shed_class_total", "Sheddable-class requests shed 503."))
	s.cShedAll.syncTo(r.Counter("serve_shed_all_total", "Requests shed 503 at the top shed level."))
	s.cAuditShed.syncTo(r.Counter("serve_audit_shed_total", "Admissions that skipped the audit slow path under load."))
	s.cTimeouts.syncTo(r.Counter("serve_timeouts_total", "Requests expired in queue before being applied."))
	s.cDrainDenied.syncTo(r.Counter("serve_drain_denied_total", "Requests refused because the daemon was draining."))
	s.cPanics.syncTo(r.Counter("serve_panics_total", "Requests answered 500 after a handler panic."))

	r.Gauge("serve_queue_depth", "Admission queue occupancy.").Set(float64(len(s.queue)))
	r.Gauge("serve_queue_capacity", "Admission queue bound.").Set(float64(cap(s.queue)))
	// The scrape queries through the tracked path too, so a recovery
	// (level-down) with no request traffic still lands in the
	// transition log by the next scrape.
	r.Gauge("serve_shed_level", "Current load-shedding ladder level (0-3).").Set(float64(s.shedLevel()))
	_, transTotal := s.shed.transitions()
	r.Counter("serve_shed_transitions_total", "Shed-ladder level transitions (up or down).").Set(float64(transTotal))
	s.tenants.syncTo(r)
	s.stages.drainTo(r)
	if s.spans != nil {
		r.Gauge("serve_span_ring_spans", "Spans currently held in the /debug/spans ring.").Set(float64(s.spans.Len()))
	}
	r.Gauge("serve_virtual_time_seconds", "Cluster virtual clock.").Set(s.eng.Now())
	b := 0.0
	if draining {
		b = 1
	}
	r.Gauge("serve_draining", "1 while the drain protocol runs.").Set(b)
	if s.quotas != nil {
		r.Gauge("serve_quota_tenants", "Distinct tenants with quota buckets.").Set(float64(s.quotas.tenants()))
	}
	var up, running int
	if s.ts != nil {
		up, running = s.ts.UpNodes(), s.ts.Running()
	} else {
		up, running = s.ss.UpNodes(), s.ss.Running()
	}
	r.Gauge("serve_nodes_up", "Nodes currently up.").Set(float64(up))
	r.Gauge("serve_nodes_total", "Cluster size.").Set(float64(s.cfg.Nodes))
	r.Gauge("serve_jobs_running", "Jobs currently on the cluster.").Set(float64(running))

	if s.wal != nil {
		m := s.wal.Metrics()
		r.Counter("serve_wal_appends_total", "Records appended to the write-ahead log.").Set(float64(m.Appends))
		r.Counter("serve_wal_appended_bytes_total", "Bytes appended to the write-ahead log.").Set(float64(m.AppendedBytes))
		r.Counter("serve_wal_commits_total", "WAL group-commit fsync barriers.").Set(float64(m.Commits))
		r.Counter("serve_wal_rotations_total", "WAL segment rotations.").Set(float64(m.Rotations))
		r.Counter("serve_wal_compactions_total", "Sealed WAL segments folded into the compacted prefix.").Set(float64(m.Compactions))
		r.Gauge("serve_wal_dirty_bytes", "Appended-but-uncommitted WAL bytes (unacknowledged loss window).").Set(float64(m.DirtyBytes))
		r.Gauge("serve_wal_last_index", "Index of the newest WAL record.").Set(float64(m.LastIndex))
		r.Gauge("serve_wal_recovered_records", "Records replayed from the WAL at boot.").Set(float64(m.RecoveredRecords))
		r.Gauge("serve_wal_recovery_truncated_bytes", "Bytes cut from torn WAL tails at boot.").Set(float64(m.RecoveryTruncatedBytes))
	}

	s.syncProcessLocked()
}

// syncProcessLocked reads process health from runtime/metrics into the
// registry. It runs at scrape time only, so the admission path pays
// nothing for it.
func (s *Server) syncProcessLocked() {
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/goroutines:goroutines"},
	}
	rtmetrics.Read(samples)
	r := s.reg
	r.Gauge("serve_heap_inuse_bytes", "Bytes in in-use heap spans: live and unswept objects plus their spans' free space.").
		Set(float64(samples[0].Value.Uint64() + samples[1].Value.Uint64()))
	r.Counter("serve_gc_cycles_total", "Completed garbage-collection cycles.").Set(float64(samples[2].Value.Uint64()))
	r.Gauge("serve_goroutines", "Live goroutines.").Set(float64(samples[3].Value.Uint64()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
