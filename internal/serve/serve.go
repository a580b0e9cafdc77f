// Package serve wraps the EDF/Libra/LibraRisk admission-control policies
// in a long-running, overload-safe HTTP service: a live job stream is
// admitted against concurrent cluster state instead of a batch
// simulation.
//
// # Consistency model
//
// The simulation state (engine, cluster, policy, recorder, registry) is
// single-goroutine by construction, so the server partitions access with
// one RW lock: every mutation — advancing virtual time, processing
// completions, admitting a job, crashing a node — happens on a single
// apply worker holding the write lock, while snapshot reads (/state)
// take the read lock. Admission requests enter a bounded queue and are
// applied strictly in dequeue order, so each decision evaluates against
// a consistent cluster snapshot that already includes every earlier
// decision; there is no torn state to observe, ever.
//
// # Virtual time
//
// The cluster runs in virtual seconds. A request may pin its own submit
// time (`t`), or the wall clock drives it via Config.TimeScale; either
// way the applied time is clamped monotonically non-decreasing, the
// engine first processes every completion at or before it, and only then
// does the policy see the job. With TimeScale zero the clock is driven
// purely by request times, which makes a request stream — and therefore
// the audit log and the drain checkpoint — fully deterministic.
//
// # Overload envelope
//
// Per-tenant token buckets (quota with burst credit) answer 429, the
// bounded queue and per-request deadlines answer 503, and both carry a
// Retry-After derived from the cluster's own signal: the virtual time of
// the next believed completion, i.e. when LibraRisk's view of the world
// next changes. A load-shedding ladder driven by the admission queue's
// fill sheds in order: the audit slow path first, then sheddable-class
// requests, then everything but health checks.
//
// # Drain
//
// Drain stops intake, applies every queued request (each in-flight
// request still gets a decision), flushes the audit stream, and
// checkpoints the applied-operation log through internal/checkpoint's
// atomic writer. The log is spooled to disk as it grows, not kept in
// memory (journal.go), so the drain streams it into the checkpoint. A
// daemon restarted with Resume replays that log — byte-identically,
// including the audit stream — and continues serving.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/fault"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/obs/span"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/wal"
	"clustersched/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Policy selects the admission control: "edf", "libra" or
	// "librarisk" (the default).
	Policy string
	// Nodes is the cluster size (default 128, the paper's machine).
	Nodes int
	// Rating is the per-node SPEC rating (default 168).
	Rating float64
	// SigmaThreshold relaxes LibraRisk's zero-risk rule.
	SigmaThreshold float64
	// TimeScale is virtual seconds per wall-clock second. Zero freezes
	// the wall mapping: virtual time advances only through request-
	// supplied times, which is the deterministic mode tests and the
	// drain/resume byte-identity guarantee rely on.
	TimeScale float64
	// QueueDepth bounds the admission queue (default 256). A full queue
	// answers 503 with Retry-After.
	QueueDepth int
	// RequestTimeout is the per-request admission deadline (default 5s):
	// a request still queued when it expires is answered 503 without
	// ever touching cluster state.
	RequestTimeout time.Duration
	// QuotaRate is the per-tenant sustained admission rate in requests
	// per wall second; QuotaBurst is the bucket depth (burst credit).
	// Both zero disables quotas. Rate zero with burst positive is a
	// fixed, non-replenishing budget.
	QuotaRate  float64
	QuotaBurst float64
	// Audit, when non-nil, receives every admission decision as JSONL,
	// streamed incrementally (the in-memory log is drained per decision).
	Audit io.Writer
	// CheckpointPath, when set, is where Drain writes the applied-op log.
	// Until the drain, the log is spooled, unsynced, to CheckpointPath+".ops":
	// New creates that file, truncating any a killed run left, so a path
	// the daemon cannot write fails New; a successful Drain removes it.
	CheckpointPath string
	// Resume replays CheckpointPath (or the WALDir log) at startup when
	// one exists.
	Resume bool
	// WALDir, when set, switches the server into durable mode: every
	// applied operation is appended to a crash-consistent write-ahead
	// log in this directory and fsynced before its HTTP response is
	// written, so an acknowledged admission survives SIGKILL. Mutually
	// exclusive with CheckpointPath (the WAL subsumes the drain
	// checkpoint). See durable.go.
	WALDir string
	// WALSegmentBytes is the log's segment size (zero means the wal
	// package default, 4 MiB).
	WALSegmentBytes int64
	// WALFS overrides the filesystem the log, or the checkpoint and its
	// spool, are written through, in tests (fault injection).
	WALFS wal.FS
	// ShedLog, when non-nil, receives one timestamped line per
	// shed-ladder level transition (up and down), so escalations are
	// visible in the daemon's log and not just as a gauge sample.
	ShedLog io.Writer
	// Spans enables per-request span tracing: every /admit and /node
	// request records its per-stage latencies (queue, WAL append, fsync
	// wait, advance, decide, ack) into a lock-free ring served by
	// /debug/spans, with stage histograms on /metrics. Off by default;
	// disabled tracing costs the hot path nil checks only, and enabled
	// tracing never changes a decision (spans_test.go proves both).
	Spans bool
	// SpanBuffer bounds the recent-spans ring (default 4096 spans).
	SpanBuffer int
	// TenantLabels caps how many distinct tenants get their own series
	// in the per-tenant /metrics counters before folding into "other"
	// (default 32).
	TenantLabels int

	// now overrides time.Now in tests.
	now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "librarisk"
	}
	if c.Nodes == 0 {
		c.Nodes = 128
	}
	if c.Rating == 0 {
		c.Rating = 168
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.SpanBuffer == 0 {
		c.SpanBuffer = 4096
	}
	if c.TenantLabels == 0 {
		c.TenantLabels = 32
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// validate rejects a config New cannot serve. It runs after
// withDefaults, so a zero field has already taken its default. The
// negated comparisons also reject NaN.
func (c Config) validate() error {
	switch {
	case c.Nodes <= 0 || !(c.Rating > 0) || math.IsInf(c.Rating, 1):
		return fmt.Errorf("serve: invalid cluster size %d × rating %g", c.Nodes, c.Rating)
	case !(c.TimeScale >= 0) || math.IsInf(c.TimeScale, 1):
		return fmt.Errorf("serve: invalid TimeScale %g", c.TimeScale)
	case !(c.SigmaThreshold >= 0):
		return fmt.Errorf("serve: invalid SigmaThreshold %g, want >= 0", c.SigmaThreshold)
	case !(c.QuotaRate >= 0) || !(c.QuotaBurst >= 0):
		return fmt.Errorf("serve: invalid quota rate %g burst %g, want >= 0", c.QuotaRate, c.QuotaBurst)
	case c.QueueDepth < 0:
		return fmt.Errorf("serve: invalid QueueDepth %d, want >= 0", c.QueueDepth)
	case c.RequestTimeout < 0:
		return fmt.Errorf("serve: invalid RequestTimeout %v, want >= 0", c.RequestTimeout)
	case c.SpanBuffer < 0:
		return fmt.Errorf("serve: invalid SpanBuffer %d, want >= 0", c.SpanBuffer)
	case c.TenantLabels < 0:
		return fmt.Errorf("serve: invalid TenantLabels %d, want >= 0", c.TenantLabels)
	case c.WALSegmentBytes < 0:
		return fmt.Errorf("serve: invalid WALSegmentBytes %d, want >= 0", c.WALSegmentBytes)
	case c.WALDir != "" && c.CheckpointPath != "":
		return errors.New("serve: WALDir and CheckpointPath are mutually exclusive: the write-ahead log subsumes the drain checkpoint")
	}
	return nil
}

// fs is the filesystem the server writes its log or checkpoint through.
func (c Config) fs() wal.FS {
	if c.WALFS == nil {
		return wal.OSFS{}
	}
	return c.WALFS
}

// Op is one state-mutating operation applied to the cluster, in apply
// order. The drain checkpoint is the sequence of Ops; replaying them
// through a fresh Server reproduces the cluster state — and the audit
// stream — byte-identically.
type Op struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind,omitempty"` // "" = admit, "node" = node up/down
	// T is the virtual time the op was applied at.
	T float64 `json:"t"`
	// Admit fields.
	Tenant   string  `json:"tenant,omitempty"`
	NumProc  int     `json:"numproc,omitempty"`
	Runtime  float64 `json:"runtime,omitempty"`
	Estimate float64 `json:"estimate,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	Class    int     `json:"class,omitempty"`
	// Audited records whether the decision went through the audit slow
	// path, so a replay sheds exactly the ops the live run shed.
	Audited bool `json:"audited,omitempty"`
	// Node-op fields.
	Node int  `json:"node,omitempty"`
	Down bool `json:"down,omitempty"`
}

// job is the workload job an admit op submits.
func (op *Op) job() workload.Job {
	return workload.Job{
		ID:            op.Seq,
		Submit:        op.T,
		Runtime:       op.Runtime,
		TraceEstimate: op.Estimate,
		NumProc:       op.NumProc,
		Deadline:      op.Deadline,
		Class:         workload.Class(op.Class),
	}
}

// opOutcome is what applying an Op produced.
type opOutcome struct {
	accepted bool
	reason   string
	killed   int // node ops: jobs torn down
}

// pending is one queued request awaiting its turn on the apply worker.
type pending struct {
	op       Op
	hasT     bool
	reqT     float64
	deadline time.Time
	resp     chan applied // buffered(1): the worker never blocks on it
	// sp is the request's trace span (nil with tracing off); enq/deq
	// are its queue-stage boundary timestamps, stamped only when sp is
	// set.
	sp  *span.Span
	enq time.Time
	deq time.Time
}

// applied is the worker's answer to a pending request.
type applied struct {
	timedOut bool
	// walFailed marks a durable-mode request refused because the
	// write-ahead log failed (fail-stop); nothing was applied.
	walFailed bool
	op        Op
	out       opOutcome
	// finished is when the worker produced this answer; the span's ack
	// stage runs from here to response-written. Zero with tracing off.
	finished time.Time
}

// exportedCounter is a goroutine-safe cumulative counter whose total is
// copied into an obs.Counter at scrape time (the registry itself is not
// synchronized; it lives under the state lock).
type exportedCounter struct {
	v atomic.Uint64
}

func (c *exportedCounter) Inc() { c.v.Add(1) }

// syncTo sets ctr to the total. Callers hold the state lock.
func (c *exportedCounter) syncTo(ctr *obs.Counter) { ctr.Set(float64(c.v.Load())) }

// Server is an online admission service around one simulated cluster.
type Server struct {
	cfg   Config
	start time.Time

	// mu guards the simulation state and the metrics registry. The apply
	// worker and /metrics take the write lock; /state takes the read
	// lock.
	mu     sync.RWMutex
	eng    *sim.Engine
	ts     *cluster.TimeShared
	ss     *cluster.SpaceShared
	pol    core.Policy
	rec    *metrics.Recorder
	audit  *obs.AuditLog
	auditW *bufio.Writer
	reg    *obs.Registry
	// nodes is the crash/repair surface of whichever cluster is in use.
	nodes fault.Cluster
	// journal is the on-disk applied-op log behind the drain checkpoint,
	// kept only with CheckpointPath set (journal.go): durable mode's log is
	// the WAL, and a daemon with neither has nothing to write it to.
	// opsApplied counts applied ops in every mode.
	journal    *opJournal
	opsApplied int
	seq        int
	// wal is non-nil in durable mode; walErr latches the first
	// durability failure (fail-stop: every later request answers 503).
	wal          *wal.Log
	walErr       error
	walFsyncHist *obs.Histogram
	// auditPending parks the decisions streamAuditLocked drains until
	// their batch is acknowledged (ack) or, on replay, until the op is
	// applied, so the audit file can never run ahead of what a crash
	// recovery would regenerate.
	auditPending []obs.Decision
	// latHist is the admission-latency histogram (seconds).
	latHist *obs.Histogram
	// spans/stages are non-nil with Config.Spans: the recent-spans ring
	// behind /debug/spans and the per-stage latency collector folded
	// into /metrics. tenants is always on (per-tenant outcome counters).
	spans   *span.Recorder
	stages  *stageStats
	tenants *tenantStats
	// applyErr latches the first apply-path failure (audit write error,
	// event budget); /healthz keeps answering but /state surfaces it.
	applyErr error

	quotas *quotaTable
	shed   *shedder

	// vnowBits/nextFinishBits cache the virtual clock and the next
	// believed completion time for lock-free Retry-After computation.
	vnowBits       atomic.Uint64
	nextFinishBits atomic.Uint64

	// intake guards the draining flag and the queue send, so Drain can
	// close the queue with no sender in flight.
	intake   sync.RWMutex
	draining bool
	queue    chan *pending
	wg       sync.WaitGroup

	drainOnce sync.Once
	drainErr  error

	// HTTP-side counters, folded into the registry at scrape.
	cRequests, cAdmitted, cRejected   exportedCounter
	cQuotaDenied, cQueueFull          exportedCounter
	cShedClass, cShedAll, cAuditShed  exportedCounter
	cTimeouts, cDrainDenied, cApplied exportedCounter
	cPanics                           exportedCounter
}

// New builds a Server, optionally replaying a drain checkpoint, and
// starts its apply worker. Callers must end the server with Drain (or
// Close) or the worker goroutine leaks.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		start:   cfg.now(),
		eng:     sim.NewEngine(),
		rec:     metrics.NewStreamingRecorder(),
		reg:     obs.NewRegistry(),
		queue:   make(chan *pending, cfg.QueueDepth),
		shed:    newShedder(cfg.ShedLog, cfg.now),
		tenants: newTenantStats(cfg.TenantLabels),
	}
	if cfg.Spans {
		s.spans = span.NewRecorder(cfg.SpanBuffer)
		s.stages = newStageStats()
	}
	if p := cfg.Policy; p != "edf" && p != "libra" && p != "librarisk" {
		return nil, fmt.Errorf("serve: unknown policy %q (want edf, libra or librarisk)", p)
	}
	ratings := make([]float64, cfg.Nodes)
	for i := range ratings {
		ratings[i] = cfg.Rating
	}
	ccfg := cluster.DefaultConfig()
	ccfg.RefRating = cfg.Rating
	var err error
	s.pol, s.ts, s.ss, err = sched.NewPolicy(cfg.Policy, sched.PolicyParams{SigmaThreshold: cfg.SigmaThreshold}, ratings, ccfg, s.rec)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.nodes = fault.ClusterOf(s.ts, s.ss)
	if cfg.QuotaRate > 0 || cfg.QuotaBurst > 0 {
		s.quotas = newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst, cfg.now)
	}
	if cfg.Audit != nil {
		s.audit = obs.NewAuditLog("serve", s.pol.Name())
		s.auditW = bufio.NewWriter(cfg.Audit)
	}
	s.latHist = s.reg.Histogram("serve_admission_latency_seconds",
		"Admission decision latency from dequeue to decision.",
		[]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
	s.storeClocks(0, math.NaN())
	if cfg.CheckpointPath != "" {
		if s.journal, err = openJournal(cfg.fs(), cfg.CheckpointPath); err != nil {
			return nil, err
		}
		if cfg.Resume {
			if err := s.replayCheckpoint(); err != nil {
				s.journal.discard()
				return nil, err
			}
		}
	}
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.worker()
	return s, nil
}

// now returns the wall clock (test-overridable).
func (s *Server) now() time.Time { return s.cfg.now() }

// wallVT maps the wall clock onto virtual seconds since start.
func (s *Server) wallVT(t time.Time) float64 {
	if s.cfg.TimeScale <= 0 {
		return 0
	}
	return t.Sub(s.start).Seconds() * s.cfg.TimeScale
}

// storeClocks publishes the virtual clock and next-completion caches for
// the lock-free Retry-After path. nextFinish NaN means "no pending
// completion".
func (s *Server) storeClocks(vnow, nextFinish float64) {
	s.vnowBits.Store(math.Float64bits(vnow))
	s.nextFinishBits.Store(math.Float64bits(nextFinish))
}

// retryAfter estimates how many wall seconds until the cluster's state
// next changes — the earliest believed completion, which is exactly the
// signal LibraRisk's rejection is based on — clamped to [1, 3600]. With
// a frozen wall mapping (TimeScale 0) it returns 1.
func (s *Server) retryAfter() time.Duration {
	if s.cfg.TimeScale <= 0 {
		return time.Second
	}
	vnow := math.Float64frombits(s.vnowBits.Load())
	next := math.Float64frombits(s.nextFinishBits.Load())
	if math.IsNaN(next) || next <= vnow {
		return time.Second
	}
	wall := (next - vnow) / s.cfg.TimeScale
	if wall < 1 {
		wall = 1
	}
	if wall > 3600 {
		wall = 3600
	}
	return time.Duration(wall * float64(time.Second))
}

// enqueueErr classifies why intake refused a request.
var (
	errDraining  = errors.New("serve: draining")
	errQueueFull = errors.New("serve: admission queue full")
)

// enqueue hands p to the apply worker, failing fast when draining or the
// queue is full. The send happens under the intake read lock, so Drain
// (which takes the write lock before closing the queue) can never race a
// send onto a closed channel.
func (s *Server) enqueue(p *pending) error {
	s.intake.RLock()
	defer s.intake.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- p:
		return nil
	default:
		return errQueueFull
	}
}

// answer is one decided request awaiting its acknowledgment.
type answer struct {
	p   *pending
	out opOutcome
	// decided is when the request's apply finished; the span's commit
	// stage runs from here to ack. Zero with tracing off.
	decided time.Time
}

// commitBatch is one decided batch on its way to ack: its answers, the
// audit decisions it produced, and — with a log — the WAL index its
// acknowledgment must be durable through.
type commitBatch struct {
	lastIdx uint64
	start   time.Time
	// fsync is how long the covering fsync took, zero when none ran.
	fsync   time.Duration
	answers []answer
	audit   []obs.Decision
}

// worker is the single apply goroutine and the one loop every request
// takes: gather a backlog, decide it, acknowledge it. It owns every
// state mutation, in queue order. Without a log a batch is one request,
// acknowledged inline — gathering more would hide queue depth from the
// shed ladder. With a log a batch is up to maxWALBatch requests, handed
// to the committer (durable.go), which acknowledges each batch after the
// fsync covering it while the worker already decides the next.
func (s *Server) worker() {
	defer s.wg.Done()
	limit := 1
	var ring chan commitBatch
	var committerDone chan struct{}
	if s.wal != nil {
		limit = maxWALBatch
		ring = make(chan commitBatch, walPipelineDepth)
		committerDone = make(chan struct{})
		go s.walCommitter(ring, committerDone)
	}
	var batch []*pending
	var answers []answer // reused by inline acks; a ring batch owns its own
	for p := range s.queue {
		s.markDequeued(p)
		batch = append(batch[:0], p)
	gather:
		for len(batch) < limit {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break gather
				}
				s.markDequeued(q)
				batch = append(batch, q)
			default:
				break gather
			}
		}
		cb, ok := s.decideBatch(batch, answers)
		switch {
		case !ok:
		case ring != nil:
			ring <- cb
		default:
			s.ack(cb)
			answers = cb.answers
		}
	}
	if ring != nil {
		close(ring)
		<-committerDone
	}
}

// decideBatch stamps, write-aheads (with a log) and applies one batch in
// queue order, parking its audit decisions with it. Expired requests are
// answered without touching state; nothing is applied once the
// durability error has latched (fail-stop). ok is false when nothing
// was left to acknowledge. answers is scratch for the batch's answers.
func (s *Server) decideBatch(batch []*pending, answers []answer) (cb commitBatch, ok bool) {
	live := batch[:0]
	now := s.now()
	for _, p := range batch {
		if !p.deadline.IsZero() && now.After(p.deadline) {
			// Expired while queued: answer without touching cluster state,
			// so a backlogged server converges instead of doing work
			// nobody is waiting for.
			s.cTimeouts.Inc()
			p.resp <- applied{timedOut: true, finished: now}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return cb, false
	}
	cb.start = s.now()
	s.mu.Lock()
	if s.walErr == nil {
		for _, p := range live {
			if p.hasT {
				p.op.T = p.reqT
			} else {
				p.op.T = s.wallVT(cb.start)
			}
			s.seq++
			p.op.Seq = s.seq
			if p.sp != nil {
				// Everything between dequeue and the batch decide is the
				// gather window this op waited out.
				p.sp.Dur[span.StageGather] = cb.start.Sub(p.deq)
			}
			if s.wal == nil {
				continue
			}
			var appendT0 time.Time
			if p.sp != nil {
				appendT0 = s.now()
			}
			data, err := json.Marshal(walRecord{Op: &p.op})
			if err == nil {
				cb.lastIdx, err = s.wal.Append(data)
			}
			if err != nil {
				s.setWALErrLocked(err)
				break
			}
			if p.sp != nil {
				p.sp.Dur[span.StageAppend] = s.now().Sub(appendT0)
				p.sp.WALIndex = cb.lastIdx
			}
		}
	}
	if s.walErr != nil {
		s.mu.Unlock()
		for _, p := range live {
			p.resp <- applied{walFailed: true, finished: s.now()}
		}
		return cb, false
	}
	if cap(answers) < len(live) {
		answers = make([]answer, 0, len(live))
	}
	cb.answers = answers[:0]
	for _, p := range live {
		var applyT0 time.Time
		if p.sp != nil {
			applyT0 = s.now()
		}
		out := s.applyLocked(&p.op, p.sp)
		// Only live ops are encoded into the journal: resume copies the
		// recovered lines into it verbatim.
		if s.journal != nil {
			if err := s.journal.append(&p.op); err != nil && s.applyErr == nil {
				s.applyErr = err
			}
		}
		a := answer{p: p, out: out}
		if p.sp != nil {
			a.decided = s.now()
			p.sp.Dur[span.StageDecide] = a.decided.Sub(applyT0) - p.sp.Dur[span.StageAdvance]
		}
		cb.answers = append(cb.answers, a)
	}
	cb.audit = s.auditPending
	s.auditPending = nil
	s.mu.Unlock()
	return cb, true
}

// ack is the one way an applied request is answered: write the batch's
// parked audit, observe latency, and answer its clients. The
// committer calls it after the fsync covering the batch; without a log
// the worker calls it inline.
func (s *Server) ack(cb commitBatch) {
	s.mu.Lock()
	if cb.fsync > 0 {
		s.walFsyncHist.Observe(cb.fsync.Seconds())
	}
	s.writeAuditLocked(cb.audit)
	end := s.now()
	lat := end.Sub(cb.start).Seconds()
	for range cb.answers {
		s.latHist.Observe(lat)
	}
	s.mu.Unlock()
	for _, a := range cb.answers {
		if a.p.sp != nil {
			// Commit: from this op's decision to its ack (covering fsync
			// and audit write included — both are part of what the 200
			// vouches for).
			a.p.sp.Dur[span.StageCommit] = end.Sub(a.decided)
		}
		a.p.resp <- applied{op: a.p.op, out: a.out, finished: end}
	}
}

// applyLocked advances virtual time to op.T (firing every completion at
// or before it), applies the op, records it, and refreshes the clock
// caches. Callers hold the write lock. op.T below the current virtual
// clock is clamped up — time never runs backwards. sp, when non-nil,
// receives the advance-stage timing (replay passes nil: recovered ops
// have no request to trace).
func (s *Server) applyLocked(op *Op, sp *span.Span) opOutcome {
	if op.T < s.eng.Now() || math.IsNaN(op.T) {
		op.T = s.eng.Now()
	}
	if op.T > s.eng.Now() {
		var t0 time.Time
		if sp != nil {
			t0 = s.now()
		}
		s.eng.SetHorizon(op.T)
		if err := s.eng.Run(); err != nil && s.applyErr == nil {
			s.applyErr = fmt.Errorf("serve: advancing to t=%g: %w", op.T, err)
		}
		s.eng.AdvanceTo(op.T)
		if sp != nil {
			sp.Dur[span.StageAdvance] = s.now().Sub(t0)
		}
	}
	if s.audit != nil {
		if op.Audited {
			s.setObs(s.audit)
		} else {
			s.setObs(nil)
		}
	}
	var out opOutcome
	if op.Kind == "node" {
		// Jobs killed by a crash are resubmitted by the policy's recovery
		// hook inside this call, so the decision stream (and audit) stays
		// deterministic.
		out = opOutcome{accepted: true, killed: s.nodes.Down(s.eng, op.Node, op.Down)}
	} else {
		// A job EDF's generous admission leaves queued, to decide at
		// selection time, counts as accepted.
		out.accepted, out.reason = s.pol.Submit(s.eng, op.job(), op.Estimate)
	}
	s.streamAuditLocked()
	// The decision counters are bumped here, beside opsApplied, so a
	// replayed op counts exactly like a live one and the totals survive a
	// restart.
	s.opsApplied++
	s.cApplied.Inc()
	if op.Kind == "" {
		if out.accepted {
			s.cAdmitted.Inc()
		} else {
			s.cRejected.Inc()
		}
		s.tenants.admit(op.Tenant, out.accepted)
	}
	s.storeClocks(s.eng.Now(), s.peekNextLocked())
	return out
}

// peekNextLocked returns the earliest pending event time — the next
// believed completion, feeding the lock-free Retry-After cache. NaN when
// nothing is pending.
func (s *Server) peekNextLocked() float64 {
	if t, _, ok := s.eng.PeekNext(); ok {
		return t
	}
	return math.NaN()
}

// setObs swaps the policy's audit attachment (nil detaches).
func (s *Server) setObs(a *obs.AuditLog) {
	type obsPolicy interface {
		SetObs(obs.Tracer, *obs.SimMetrics, *obs.AuditLog)
	}
	if p, ok := s.pol.(obsPolicy); ok {
		p.SetObs(nil, nil, a)
	}
}

// streamAuditLocked drains newly recorded decisions into auditPending,
// where they wait for their op's ack (or replayLocked) to write them.
func (s *Server) streamAuditLocked() {
	if s.audit == nil || s.auditW == nil {
		return
	}
	s.auditPending = append(s.auditPending, s.audit.Drain()...)
}

// replayLocked re-applies one recovered op — checkpoint or WAL — through
// the path live traffic takes, raises the sequence high-water mark past
// it, and writes its audit at once: the op is already persisted, so there
// is no ack to wait for. An op checkRecovered refuses is not applied.
func (s *Server) replayLocked(op Op) error {
	if err := s.checkRecovered(op); err != nil {
		return err
	}
	s.applyLocked(&op, nil)
	s.seq = op.Seq
	s.writeAuditLocked(s.auditPending)
	s.auditPending = s.auditPending[:0]
	return nil
}

// checkRecovered holds a recovered op to the rules the live path applies
// before an op reaches the engine: the handlers' node range and admit
// checks, a valid time, and a sequence number above every earlier op's. A
// checksum proves the bytes are the ones written, not that they form an
// op the handlers would have let through.
func (s *Server) checkRecovered(op Op) error {
	var err error
	switch {
	case op.Seq <= s.seq:
		err = fmt.Errorf("does not follow seq %d", s.seq)
	case !(op.T >= 0):
		err = fmt.Errorf("invalid t %g", op.T)
	case op.Kind == "node":
		err = s.checkNode(op.Node)
	case op.Kind == "":
		err = checkAdmitJob(op.job())
	default:
		err = fmt.Errorf("unknown kind %q", op.Kind)
	}
	if err != nil {
		return fmt.Errorf("op seq %d: %w", op.Seq, err)
	}
	return nil
}

// writeAuditLocked appends decisions to the audit stream. A write
// failure latches applyErr and stops the stream; admission keeps
// serving (losing audit is strictly better than refusing traffic).
func (s *Server) writeAuditLocked(ds []obs.Decision) {
	if len(ds) == 0 || s.auditW == nil {
		return
	}
	if err := obs.WriteAuditJSONL(s.auditW, ds); err != nil {
		if s.applyErr == nil {
			s.applyErr = fmt.Errorf("serve: audit stream: %w", err)
		}
		s.auditW = nil
		return
	}
	if err := s.auditW.Flush(); err != nil {
		if s.applyErr == nil {
			s.applyErr = fmt.Errorf("serve: audit stream: %w", err)
		}
		s.auditW = nil
	}
}

// Drain performs the graceful-shutdown protocol: stop intake, apply
// every queued request (each still gets its decision), flush the audit
// stream, and checkpoint the op log. Drain is idempotent; concurrent
// callers share the first run's result. The context bounds the wait for
// the queue to empty.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.intake.Lock()
		s.draining = true
		close(s.queue)
		s.intake.Unlock()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("serve: drain: %w", context.Cause(ctx))
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.auditW != nil {
			if err := s.auditW.Flush(); err != nil && s.applyErr == nil {
				s.applyErr = fmt.Errorf("serve: audit flush: %w", err)
			}
		}
		if s.journal != nil {
			if err := s.writeCheckpointLocked(); err != nil {
				s.drainErr = err
				return
			}
		}
		if s.wal != nil {
			if err := s.drainWALLocked(); err != nil {
				s.drainErr = err
				return
			}
		}
		if s.applyErr != nil {
			s.drainErr = s.applyErr
		}
	})
	return s.drainErr
}

// Close is Drain with no deadline, for tests and defer chains.
func (s *Server) Close() error { return s.Drain(context.Background()) }

// OpsApplied returns how many operations have been applied so far
// (including ops replayed from a checkpoint or the WAL at boot).
func (s *Server) OpsApplied() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.opsApplied
}
