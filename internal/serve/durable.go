package serve

// Durable mode: with Config.WALDir set, every applied operation is
// appended to a crash-consistent write-ahead log and fsynced BEFORE its
// HTTP response is written, so an acknowledged admission survives
// SIGKILL or power loss. The apply worker (serve.go) runs the same
// gather → decide → ack loop as without a log, with two differences:
// it gathers up to maxWALBatch queued requests into one group commit,
// amortizing the fsync across the batch, and decideBatch appends each
// op to the WAL buffer before applying it.
//
// The decided batch then goes to walCommitter over a bounded FIFO ring
// instead of being acked inline; the committer fsyncs through the
// batch's last WAL index and only then calls ack, which writes the
// batch's parked audit records and answers its clients. While one
// batch's fsync is in flight the worker is already deciding the next,
// so group-commit latency overlaps compute instead of serializing it —
// but a 200 is still written only after the fsync that covers the op,
// and since audit is parked with its batch until that point the audit
// file can never run ahead of the replayable log.
//
// Recovery on boot replays the log — the compacted prefix plus the tail
// segments, torn tails truncated by internal/wal — through replayLocked,
// the same path the drain checkpoint replays through and the same
// applyLocked live traffic takes, so the rebuilt cluster state and the
// regenerated audit stream are byte-identical to the pre-crash run.
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

	"clustersched/internal/checkpoint"
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
			if s.quotas != nil && rec.Op.Kind == "" {
				s.quotas.forceTake(rec.Op.Tenant)
			}
			if err := s.replayLocked(*rec.Op); err != nil {
				s.wal.Close()
				return fmt.Errorf("serve: wal record %d: %w", r.Index, err)
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
// the worker and the committer: at most this many batches have been
// applied in memory and await their covering fsync. Deep enough to keep
// an fsync always in flight, shallow enough that a durability failure
// only ever strands a few batches' worth of unanswered clients.
const walPipelineDepth = 4

// walCommitter pops decided batches FIFO, makes each durable through its
// last WAL index, then acks it. SyncTo overlaps the flush-and-fsync with
// the worker's appends, and its durable-index bookkeeping means a batch
// whose bytes were already covered by a later-started sync acknowledges
// without a redundant fsync. A sync failure latches the fail-stop error;
// the stranded batch — and every batch still in the ring — is answered
// 503 without acknowledgment, since its decisions may not be on disk.
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
		if synced {
			cb.fsync = s.now().Sub(t0)
		}
		s.ack(cb)
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
