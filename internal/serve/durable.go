package serve

// Durable mode: with Config.WALDir set, every applied operation is
// appended to a crash-consistent write-ahead log and fsynced BEFORE its
// HTTP response is written, so an acknowledged admission survives
// SIGKILL or power loss. The apply worker batches whatever is queued
// into one group commit, amortizing the fsync across the batch.
//
// The durable path is a two-stage pipeline. The decide stage appends
// the batch to the WAL buffer, applies it in memory, and hands it to
// the committer over a bounded FIFO ring; the committer fsyncs through
// the batch's last WAL index, then writes its audit records and
// answers its clients. While one batch's fsync is in flight the decide
// stage is already deciding the next, so group-commit latency overlaps
// compute instead of serializing it — but an acknowledgment is still
// written only after the fsync that covers the op, so a 200 implies
// the op is on disk exactly as in the unpipelined design. Audit output
// is parked with its batch (deferAudit) until that fsync returns, so
// the audit file can never run ahead of the replayable log.
//
// Recovery on boot replays the log — the compacted prefix plus the tail
// segments, torn tails truncated by internal/wal — through the same
// applyLocked path live traffic takes, so the rebuilt cluster state and
// the regenerated audit stream are byte-identical to the pre-crash run.
// A meta.json sidecar pins the config identity; resuming under a
// different cluster shape is refused loudly, as is an existing log
// without Resume set.
//
// Failure model is fail-stop: once an append or commit errors, the
// error latches, no further request mutates state, and every request
// answers 503 "durability failure". Batches already decided when the
// error latched — at most walPipelineDepth of them — have mutated the
// in-memory cluster but are answered 503 without acknowledgment, and
// their ops may or may not replay after a restart; clients must treat
// a 503 as indeterminate, which is the standard at-least-once gray
// zone. Their audit records are discarded with the latch, so the audit
// stream never claims a decision that was not made durable.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"clustersched/internal/checkpoint"
	"clustersched/internal/obs"
	"clustersched/internal/obs/span"
	"clustersched/internal/wal"
)

// walMetaName is the config-identity sidecar inside WALDir.
const walMetaName = "meta.json"

// maxWALBatch bounds one group commit so a full queue cannot stretch
// the first request's latency unboundedly.
const maxWALBatch = 128

// walRecord is one WAL entry: an applied op, or a quota snapshot
// (written at drain so budgets restore exactly after a clean restart).
type walRecord struct {
	Op    *Op          `json:"op,omitempty"`
	Quota []quotaEntry `json:"quota,omitempty"`
}

// openWAL opens (or creates) the write-ahead log, verifies the config
// identity, and replays every recovered record. Called from New before
// the worker starts, so no locking is needed for the replay itself.
func (s *Server) openWAL() error {
	fsys := s.cfg.WALFS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	metaPath := filepath.Join(s.cfg.WALDir, walMetaName)
	existing, haveMeta := false, false
	if entries, err := fsys.ReadDir(s.cfg.WALDir); err == nil {
		for _, e := range entries {
			if e.Name() == walMetaName {
				existing, haveMeta = true, true
			}
			if strings.HasSuffix(e.Name(), ".wal") {
				existing = true
			}
		}
	}
	if existing && !s.cfg.Resume {
		return fmt.Errorf("serve: %s already holds a write-ahead log; start with Resume to recover it, or point WALDir at an empty directory", s.cfg.WALDir)
	}
	if haveMeta {
		metas, err := checkpoint.ReadFileJSONL[checkpointMeta](metaPath)
		if err != nil {
			return fmt.Errorf("serve: wal meta: %w", err)
		}
		if len(metas) != 1 {
			return fmt.Errorf("serve: wal meta %s: want exactly one record, got %d", metaPath, len(metas))
		}
		meta, want := metas[0], s.metaLocked()
		want.Ops, want.CRC = meta.Ops, meta.CRC
		if meta != want {
			return fmt.Errorf("serve: wal at %s was written by config %+v, current config is %+v: refusing to replay",
				s.cfg.WALDir, meta, want)
		}
	}
	log, recov, err := wal.Open(wal.Options{
		Dir:          s.cfg.WALDir,
		FS:           fsys,
		SegmentBytes: s.cfg.WALSegmentBytes,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.wal = log
	if !haveMeta {
		meta := s.metaLocked()
		meta.Ops = 0
		if err := checkpoint.WriteFileJSONLFS(fsys, metaPath, []checkpointMeta{meta}); err != nil {
			s.wal.Close()
			return fmt.Errorf("serve: wal meta: %w", err)
		}
	}
	for _, r := range recov.Records {
		var rec walRecord
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			s.wal.Close()
			return fmt.Errorf("serve: wal record %d: %w", r.Index, err)
		}
		switch {
		case rec.Op != nil:
			op := *rec.Op
			if s.quotas != nil && op.Kind == "" {
				s.quotas.forceTake(op.Tenant)
			}
			s.applyLocked(&op, nil)
			if op.Seq > s.seq {
				s.seq = op.Seq
			}
		case rec.Quota != nil:
			if s.quotas != nil {
				s.quotas.restore(rec.Quota)
			}
		default:
			s.wal.Close()
			return fmt.Errorf("serve: wal record %d is neither op nor quota", r.Index)
		}
	}
	if s.applyErr != nil {
		s.wal.Close()
		return s.applyErr
	}
	s.walFsyncHist = s.reg.Histogram("serve_wal_fsync_seconds",
		"WAL group-commit fsync latency.",
		[]float64{0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5})
	return nil
}

// WALRecovery reports what boot recovery replayed: records applied from
// the log and bytes truncated from torn tails. Zeros without WALDir.
func (s *Server) WALRecovery() (records int, truncatedBytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.wal == nil {
		return 0, 0
	}
	m := s.wal.Metrics()
	return m.RecoveredRecords, m.RecoveryTruncatedBytes
}

// walPipelineDepth bounds the decided-but-unacknowledged ring between
// the decide stage and the committer: at most this many batches have
// been applied in memory and await their covering fsync. Deep enough to
// keep an fsync always in flight, shallow enough that a durability
// failure only ever strands a few batches' worth of unanswered clients.
const walPipelineDepth = 4

// answer is one decided request awaiting its post-fsync acknowledgment.
type answer struct {
	p   *pending
	op  Op
	out opOutcome
	// decided is when the decide stage finished this request; the
	// span's commit stage runs from here to its covering fsync. Zero
	// with tracing off.
	decided time.Time
}

// commitBatch is the unit flowing through the pipeline ring: a decided
// batch, the WAL index its acknowledgment must be durable through, and
// the audit decisions it produced (held back until that fsync returns,
// so a crash can never leave the audit file ahead of the replayable
// log).
type commitBatch struct {
	lastIdx uint64
	start   time.Time
	answers []answer
	audit   []obs.Decision
}

// durableWorker is the decide stage of the two-stage durable pipeline:
// dequeue, gather a batch, write-ahead, apply, and hand the decided
// batch to the committer — then immediately decide the next batch while
// the committer's fsync for this one is still in flight. Group-commit
// fsync latency thus overlaps the parallel decide of the next batch
// instead of serializing the apply path; clients still only hear a
// decision after the fsync covering it, so a 200 implies the op is on
// disk exactly as before. Ordering is untouched: batches enter the ring
// FIFO and the committer answers them FIFO, so decisions are
// acknowledged — and audit is written — strictly in apply order.
func (s *Server) durableWorker() {
	ring := make(chan commitBatch, walPipelineDepth)
	committerDone := make(chan struct{})
	go s.walCommitter(ring, committerDone)
	var batch []*pending
	for {
		p, ok := <-s.queue
		if !ok {
			break
		}
		s.markDequeued(p)
		batch = append(batch[:0], p)
	drain:
		for len(batch) < maxWALBatch {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break drain
				}
				s.markDequeued(q)
				batch = append(batch, q)
			default:
				break drain
			}
		}
		s.decideBatch(batch, ring)
	}
	close(ring)
	<-committerDone
	s.mu.Lock()
	s.deferAudit = false
	s.mu.Unlock()
}

// decideBatch stamps, write-aheads and applies one batch, then pushes
// it onto the ring for the committer to fsync and acknowledge. Expired
// requests are answered without touching state. Nothing is applied once
// the durability error has latched (fail-stop).
func (s *Server) decideBatch(batch []*pending, ring chan<- commitBatch) {
	live := batch[:0]
	now := s.now()
	for _, p := range batch {
		if !p.deadline.IsZero() && now.After(p.deadline) {
			s.cTimeouts.Inc()
			p.resp <- applied{timedOut: true, finished: now}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	start := s.now()
	s.mu.Lock()
	var lastIdx uint64
	if s.walErr == nil {
		for _, p := range live {
			if p.hasT {
				p.op.T = p.reqT
			} else {
				p.op.T = s.wallVT(start)
			}
			s.seq++
			p.op.Seq = s.seq
			var appendT0 time.Time
			if p.sp != nil {
				// Everything between dequeue and the batch decide is
				// the group-commit gather window this op waited out.
				p.sp.Dur[span.StageGather] = start.Sub(p.deq)
				appendT0 = s.now()
			}
			data, err := json.Marshal(walRecord{Op: &p.op})
			if err == nil {
				lastIdx, err = s.wal.Append(data)
			}
			if err != nil {
				s.setWALErrLocked(err)
				break
			}
			if p.sp != nil {
				p.sp.Dur[span.StageAppend] = s.now().Sub(appendT0)
				p.sp.WALIndex = lastIdx
			}
		}
	}
	if s.walErr != nil {
		s.mu.Unlock()
		for _, p := range live {
			p.resp <- applied{walFailed: true, finished: s.now()}
		}
		return
	}
	cb := commitBatch{lastIdx: lastIdx, start: start, answers: make([]answer, 0, len(live))}
	for _, p := range live {
		var applyT0 time.Time
		if p.sp != nil {
			applyT0 = s.now()
		}
		out := s.applyLocked(&p.op, p.sp)
		ans := answer{p: p, op: p.op, out: out}
		if p.sp != nil {
			ans.decided = s.now()
			p.sp.Dur[span.StageDecide] = ans.decided.Sub(applyT0) - p.sp.Dur[span.StageAdvance]
		}
		cb.answers = append(cb.answers, ans)
	}
	cb.audit = s.auditPending
	s.auditPending = nil
	s.mu.Unlock()
	ring <- cb
}

// walCommitter is the commit stage: pop decided batches FIFO, make each
// durable through its last WAL index, then write its audit and answer
// its clients. SyncTo overlaps the flush-and-fsync with the decide
// stage's appends, and its durable-index bookkeeping means a batch
// whose bytes were already covered by a later-started sync acknowledges
// without a redundant fsync. A sync failure latches the fail-stop
// error; the stranded batch — and every batch still in the ring — is
// answered 503 without acknowledgment, since its decisions may not be
// on disk.
func (s *Server) walCommitter(ring <-chan commitBatch, done chan<- struct{}) {
	defer close(done)
	for cb := range ring {
		t0 := s.now()
		synced, err := s.wal.SyncTo(cb.lastIdx)
		if err != nil {
			s.mu.Lock()
			s.setWALErrLocked(err)
			s.mu.Unlock()
			failedAt := s.now()
			for _, a := range cb.answers {
				a.p.resp <- applied{walFailed: true, finished: failedAt}
			}
			continue
		}
		s.mu.Lock()
		if synced {
			s.walFsyncHist.Observe(s.now().Sub(t0).Seconds())
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
				// Commit: from this op's decision to covered by the
				// group fsync (audit write included — it is part of
				// what the 200 vouches for).
				a.p.sp.Dur[span.StageCommit] = end.Sub(a.decided)
			}
			s.shed.observe(lat)
			a.p.resp <- applied{op: a.op, out: a.out, finished: end}
		}
	}
}

// setWALErrLocked latches the fail-stop durability error. Callers hold
// the write lock.
func (s *Server) setWALErrLocked(err error) {
	if s.walErr == nil {
		s.walErr = fmt.Errorf("serve: wal: %w", err)
	}
	if s.applyErr == nil {
		s.applyErr = s.walErr
	}
}

// drainWALLocked finishes the log on graceful shutdown: append the
// exact quota snapshot (so a resume restores budgets precisely instead
// of reconstructing them), commit, and close. Callers hold the write
// lock.
func (s *Server) drainWALLocked() error {
	if s.walErr != nil {
		_ = s.wal.Close()
		return s.walErr
	}
	if s.quotas != nil {
		if entries := s.quotas.snapshot(); len(entries) > 0 {
			data, err := json.Marshal(walRecord{Quota: entries})
			if err != nil {
				return fmt.Errorf("serve: wal quota snapshot: %w", err)
			}
			if _, err := s.wal.Append(data); err != nil {
				_ = s.wal.Close()
				return fmt.Errorf("serve: wal quota snapshot: %w", err)
			}
		}
	}
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("serve: wal close: %w", err)
	}
	return nil
}
