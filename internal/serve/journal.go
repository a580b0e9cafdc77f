package serve

// Checkpoint mode: with Config.CheckpointPath set, the applied-op log
// lives on disk, not in memory. New opens a spool file next to the
// checkpoint, <CheckpointPath>.ops, truncating whatever a killed run left
// there, and every op the apply worker decides is encoded as its
// checkpoint line into it. The spool is buffered and never fsynced:
// checkpoint mode promises nothing before drain. Drain streams the meta
// header, the spool and the quota snapshot into the checkpoint through
// internal/checkpoint's atomic writer, then removes the spool. Resume
// streams the checkpoint twice from one open handle — once to check the
// header and checksum, once to replay — copying each op line verbatim
// into the new spool. So the server's memory is bounded by its running
// jobs in checkpoint mode too, however long it serves.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"clustersched/internal/checkpoint"
	"clustersched/internal/wal"
)

// checkpointVersion is the drain-checkpoint format: version 2 added the
// body checksum and the quota snapshot line.
const checkpointVersion = 2

// checkpointMeta identifies the configuration a checkpoint belongs to; a
// resume under a different cluster shape must fail loudly, not replay.
// The same struct doubles as the WAL directory's meta.json sidecar
// (with Ops and CRC zero — a log has no fixed length to pin).
type checkpointMeta struct {
	Version int     `json:"version"`
	Policy  string  `json:"policy"`
	Nodes   int     `json:"nodes"`
	Rating  float64 `json:"rating"`
	Sigma   float64 `json:"sigma"`
	Ops     int     `json:"ops"`
	// CRC is CRC32C over every body line after the header, trailing
	// newline included, so a truncated or edited checkpoint is refused
	// before any of it replays.
	CRC uint32 `json:"crc"`
}

// checkpointLine is one line of the drain checkpoint: a meta header, an
// op, or the final quota snapshot.
type checkpointLine struct {
	Meta  *checkpointMeta `json:"meta,omitempty"`
	Op    *Op             `json:"op,omitempty"`
	Quota []quotaEntry    `json:"quota,omitempty"`
}

func (s *Server) metaLocked() checkpointMeta {
	return checkpointMeta{
		Version: checkpointVersion,
		Policy:  s.cfg.Policy,
		Nodes:   s.cfg.Nodes,
		Rating:  s.cfg.Rating,
		Sigma:   s.cfg.SigmaThreshold,
		Ops:     s.opsApplied,
	}
}

// spoolSuffix names the op journal's spool file beside the checkpoint.
const spoolSuffix = ".ops"

var newline = []byte{'\n'}

// checksumWriter passes writes on to w, keeping a CRC32C and a count of
// the bytes w accepted.
type checksumWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *checksumWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = wal.ChecksumAdd(c.crc, p[:n])
	c.n += int64(n)
	return n, err
}

// opJournal is checkpoint mode's applied-op log: one checkpoint line per
// op in the spool file, behind a 64 KiB buffer, with a running checksum
// over every byte written. A write failure latches err and stops the
// journal; the server keeps serving, and Drain refuses to write a
// checkpoint that would be missing ops.
type opJournal struct {
	fsys wal.FS
	path string
	f    wal.File
	buf  *bufio.Writer
	sum  checksumWriter // over buf
	enc  *json.Encoder  // over sum
	line checkpointLine // reused by every append
	err  error
}

// openJournal creates (or truncates) the spool beside ckptPath. A path
// the daemon cannot write fails here, at boot, not at drain.
func openJournal(fsys wal.FS, ckptPath string) (*opJournal, error) {
	path := ckptPath + spoolSuffix
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint journal: %w", err)
	}
	j := &opJournal{fsys: fsys, path: path, f: f, buf: bufio.NewWriterSize(f, 64*1024)}
	j.sum.w = j.buf
	j.enc = json.NewEncoder(&j.sum)
	return j, nil
}

// fail latches the first failure, naming the journal, and returns the
// latched one.
func (j *opJournal) fail(err error) error {
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("serve: checkpoint journal %s: %w", j.path, err)
	}
	return j.err
}

// append journals one applied op, encoded exactly as json.Marshal would
// encode its checkpoint line.
func (j *opJournal) append(op *Op) error {
	if j.err != nil {
		return j.err
	}
	j.line.Op = op
	err := j.enc.Encode(&j.line)
	j.line.Op = nil
	return j.fail(err)
}

// appendRaw journals one op line verbatim (newline stripped), as resume
// copies it out of the checkpoint it replays.
func (j *opJournal) appendRaw(line []byte) error {
	if j.err != nil {
		return j.err
	}
	if _, err := j.sum.Write(line); err != nil {
		return j.fail(err)
	}
	_, err := j.sum.Write(newline)
	return j.fail(err)
}

// copyTo flushes the spool and streams it into w, checking that what it
// read back is what was written.
func (j *opJournal) copyTo(w io.Writer) error {
	if err := j.fail(j.buf.Flush()); err != nil {
		return err
	}
	r, err := j.fsys.OpenFile(j.path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	defer r.Close()
	got := checksumWriter{w: w}
	if _, err := io.Copy(&got, r); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	if got.n != j.sum.n || got.crc != j.sum.crc {
		return fmt.Errorf("journal %s: read back %d bytes with checksum %08x, wrote %d with %08x",
			j.path, got.n, got.crc, j.sum.n, j.sum.crc)
	}
	return nil
}

// discard closes and removes the spool.
func (j *opJournal) discard() {
	j.f.Close()
	j.fsys.Remove(j.path)
}

// writeCheckpointLocked lands the drain checkpoint: the meta header, the
// spooled op lines streamed verbatim, then the quota snapshot. The
// header's CRC is the spool's running checksum extended over the quota
// line, so it covers exactly the body bytes on disk. The previous
// checkpoint is replaced only by a complete, fsynced new one, and only
// then is the spool removed; on any failure, a journal write failure
// during the run included, the previous checkpoint stays as it was.
func (s *Server) writeCheckpointLocked() error {
	j := s.journal
	defer j.f.Close()
	if j.err != nil {
		return j.err
	}
	var quota []byte
	if s.quotas != nil {
		if entries := s.quotas.snapshot(); len(entries) > 0 {
			raw, err := json.Marshal(checkpointLine{Quota: entries})
			if err != nil {
				return fmt.Errorf("serve: checkpoint: %w", err)
			}
			quota = append(raw, '\n')
		}
	}
	meta := s.metaLocked()
	meta.CRC = wal.ChecksumAdd(j.sum.crc, quota)
	hdr, err := json.Marshal(checkpointLine{Meta: &meta})
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	err = checkpoint.WriteFileAtomic(j.fsys, s.cfg.CheckpointPath, func(w io.Writer) error {
		if _, err := w.Write(append(hdr, '\n')); err != nil {
			return err
		}
		if err := j.copyTo(w); err != nil {
			return err
		}
		_, err := w.Write(quota)
		return err
	})
	if j.err != nil {
		return j.err
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The checkpoint holds every op now. A spool that fails to go is
	// harmless: the next boot truncates it unread.
	j.fsys.Remove(j.path)
	return nil
}

// replayCheckpoint resumes from CheckpointPath, streaming it twice from
// one open handle so the bytes replayed are the bytes checksummed. Pass 1
// checks the meta header against this server's config and the header's
// CRC against the body, so a corrupt or foreign checkpoint is refused
// before any of it replays. Pass 2 re-applies each op through
// replayLocked — with the exact virtual time and audit attachment of the
// original run, so the replayed decision stream, audit JSONL included,
// is byte-identical — copies its line verbatim into the new journal, and
// restores the quota snapshot. Errors name the file's physical line. A
// missing file is a fresh start, not an error.
func (s *Server) replayCheckpoint() error {
	path := s.cfg.CheckpointPath
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	defer f.Close()
	errf := func(format string, args ...any) error {
		return fmt.Errorf("serve: checkpoint %s: "+format, append([]any{path}, args...)...)
	}

	var meta *checkpointMeta
	crc := uint32(0)
	err = checkpoint.ForEachLine(f, func(line int, raw []byte) error {
		if meta != nil {
			crc = wal.ChecksumAdd(wal.ChecksumAdd(crc, raw), newline)
			return nil
		}
		var hdr checkpointLine
		if err := json.Unmarshal(raw, &hdr); err != nil || hdr.Meta == nil {
			return errf("missing meta header")
		}
		if hdr.Meta.Version != checkpointVersion {
			return errf("unsupported version %d (want %d)", hdr.Meta.Version, checkpointVersion)
		}
		meta = hdr.Meta
		return nil
	})
	if err != nil {
		return err
	}
	if meta == nil {
		return errf("missing meta header")
	}
	if crc != meta.CRC {
		return errf("body checksum %08x does not match header %08x: refusing to replay a corrupt checkpoint", crc, meta.CRC)
	}
	want := s.metaLocked()
	want.Ops, want.CRC = meta.Ops, meta.CRC
	if *meta != want {
		return fmt.Errorf("serve: checkpoint %s was written by config %+v, current config is %+v", path, *meta, want)
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	header, ops := true, 0
	err = checkpoint.ForEachLine(f, func(line int, raw []byte) error {
		if header {
			header = false
			return nil
		}
		var ln checkpointLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return errf("line %d: %w", line, err)
		}
		switch {
		case ln.Op != nil:
			if err := s.replayLocked(*ln.Op); err != nil {
				return errf("line %d: %w", line, err)
			}
			ops++
			return s.journal.appendRaw(raw)
		case ln.Quota != nil:
			if s.quotas != nil {
				s.quotas.restore(ln.Quota)
			}
			return nil
		default:
			return errf("line %d is neither meta, op nor quota", line)
		}
	})
	if err != nil {
		return err
	}
	if ops != meta.Ops {
		return errf("header claims %d ops, file has %d", meta.Ops, ops)
	}
	if err := s.journal.fail(s.journal.buf.Flush()); err != nil {
		return err
	}
	return s.applyErr
}
