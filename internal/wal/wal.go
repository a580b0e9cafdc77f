// Package wal is a crash-consistent write-ahead op journal: an
// append-only log of opaque records framed with CRC32C checksums,
// fsync-batched via group commit, rotated into bounded segments and
// compacted by folding sealed segments into a single consolidated
// prefix file.
//
// # On-disk layout
//
// A log directory holds at most one consolidated prefix, compact.wal,
// plus numbered tail segments seg-<first-index>.wal. Records carry
// monotonically increasing 1-based indices; the active segment is the
// highest-numbered one, sealed segments are folded into compact.wal
// (and deleted) at rotation, so in steady state the directory is
// exactly {compact.wal, one active segment}. Every file is a sequence
// of CRC32C-framed records (see frame.go); directory mutations are
// made durable with a directory fsync.
//
// # Durability contract
//
// Append buffers; Commit is the durability barrier (flush + fsync).
// A record is guaranteed to survive a crash only after the Commit
// that covers it returns — callers acknowledge work strictly after
// that point. Options.SyncBytes bounds how much appended data may sit
// unsynced before Append forces a commit itself.
//
// # Recovery
//
// Open replays compact.wal then the segments in index order, skipping
// records already seen (a crash between fold and segment delete leaves
// a benign overlap). A torn tail — short header, short payload,
// implausible length or checksum mismatch — truncates that file at the
// last intact frame and is reported in Recovery, never silently
// replayed and never fatal. A hole in the middle of the sequence (an
// interior file lost records but later files continue past them) is
// corruption recovery cannot paper over, and Open refuses it loudly.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	compactName   = "compact.wal"
	segmentPrefix = "seg-"
	segmentSuffix = ".wal"
)

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory, created if absent.
	Dir string
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// SegmentBytes bounds one segment file; the active segment rotates
	// when appending would exceed it. Default 4 MiB; Open refuses a
	// negative one.
	SegmentBytes int64
	// SyncBytes forces a commit from inside Append once that many bytes
	// sit unsynced, bounding the group a commit covers. Default 256 KiB;
	// negative disables the bound.
	SyncBytes int64
	// NoAutoCompact leaves sealed segments on disk at rotation instead
	// of folding them into compact.wal. Recovery still reads them.
	NoAutoCompact bool
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncBytes == 0 {
		o.SyncBytes = 256 << 10
	}
	return o
}

// Record is one recovered log entry.
type Record struct {
	Index uint64
	Data  []byte
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Records holds every intact record in index order, deduplicated
	// across the compacted prefix and the segments.
	Records []Record
	// TruncatedBytes counts bytes cut from torn tails, summed over
	// files; TruncatedFiles counts how many files had one.
	TruncatedBytes int64
	TruncatedFiles int
}

// Metrics is a point-in-time snapshot of the log's counters.
type Metrics struct {
	Appends        uint64
	AppendedBytes  uint64
	Commits        uint64
	Rotations      uint64
	Compactions    uint64
	CompactedBytes uint64
	// DirtyBytes is appended-but-not-yet-committed data: the loss
	// window an immediate crash would open for unacknowledged work.
	DirtyBytes int64
	// LastIndex is the index of the most recently appended record.
	LastIndex uint64
	// RecoveredRecords and RecoveryTruncatedBytes restate what Open
	// found, for export alongside the live counters.
	RecoveredRecords       int
	RecoveryTruncatedBytes int64
}

// Log is an open write-ahead log. Append/Commit/SyncTo/Compact/Close
// are goroutine-safe; the intended shape is one appender that groups
// its own commits, optionally with a separate committer goroutine
// overlapping fsyncs via SyncTo.
type Log struct {
	opts Options
	fs   FS
	dir  string

	mu          sync.Mutex
	synced      sync.Cond // broadcast when an overlapped sync finishes
	seg         File
	segW        *bufio.Writer
	segPath     string
	segRecords  int64
	segSize     int64
	compactLast uint64 // highest index folded into compact.wal (0 = none)
	nextIndex   uint64
	dirty       int64
	encBuf      []byte
	m           Metrics
	closed      bool
	// syncing is true while a SyncTo fsync runs outside the mutex. The
	// file handle it holds must stay open, so rotation, Close and
	// synchronous commits wait on synced until it clears.
	syncing bool
	// durableIndex is the highest record index known to be on disk.
	durableIndex uint64
	// err latches a failed overlapped sync: the bytes it had claimed
	// from dirty may or may not be durable, so the log is poisoned and
	// every later Append/Commit/SyncTo returns this error.
	err error
}

// Open loads (or creates) the log in opts.Dir, recovering every intact
// record and truncating torn tails. The returned Recovery is the replay
// input; the Log continues appending after the last recovered index.
func Open(opts Options) (*Log, *Recovery, error) {
	if opts.SegmentBytes < 0 {
		return nil, nil, fmt.Errorf("wal: SegmentBytes %d, want >= 0", opts.SegmentBytes)
	}
	opts = opts.withDefaults()
	l := &Log{opts: opts, fs: opts.FS, dir: opts.Dir}
	l.synced.L = &l.mu
	if err := l.fs.MkdirAll(l.dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.m.RecoveredRecords = len(rec.Records)
	l.m.RecoveryTruncatedBytes = rec.TruncatedBytes
	l.m.LastIndex = l.nextIndex - 1
	l.durableIndex = l.nextIndex - 1
	return l, rec, nil
}

// segmentFirst parses the first-index a segment file name declares.
func segmentFirst(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	var idx uint64
	if _, err := fmt.Sscanf(hex, "%016x", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, first, segmentSuffix)
}

// scanResult is one file's worth of recovery.
type scanResult struct {
	records   []Record
	validSize int64 // offset of the last intact frame boundary
	tornBytes int64 // bytes past validSize (0 = clean)
}

// scanFile reads every intact frame from path. A torn tail stops the
// scan and is reported, not returned as an error; real I/O errors are.
func (l *Log) scanFile(path string) (scanResult, error) {
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := l.fs.Stat(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: %w", err)
	}
	sc := frameScanner{r: bufio.NewReaderSize(f, 256<<10)}
	var res scanResult
	for {
		idx, data, err := sc.next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, errTornFrame) {
			res.tornBytes = st.Size() - sc.off
			break
		}
		if err != nil {
			return scanResult{}, fmt.Errorf("wal: %s: %w", path, err)
		}
		res.records = append(res.records, Record{Index: idx, Data: data})
	}
	res.validSize = sc.off
	return res, nil
}

// truncateTo physically cuts path at size and syncs the result, making
// the torn-tail removal itself durable.
func (l *Log) truncateTo(path string, size int64) error {
	f, err := l.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// recover scans the directory, truncates torn tails, folds sealed
// segments left behind by a crash, and positions the log for appending.
func (l *Log) recover() (*Recovery, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	type segFile struct {
		name  string
		first uint64
	}
	var segs []segFile
	haveCompact := false
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Name() == compactName {
			haveCompact = true
			continue
		}
		if first, ok := segmentFirst(e.Name()); ok {
			segs = append(segs, segFile{name: e.Name(), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	rec := &Recovery{}
	last := uint64(0)
	absorb := func(path string, records []Record, declaredFirst uint64) error {
		if declaredFirst > 0 && declaredFirst > last+1 {
			return fmt.Errorf("wal: %s starts at index %d but the log only reaches %d: interior records are missing, refusing to replay a holed log", path, declaredFirst, last)
		}
		for _, r := range records {
			if r.Index <= last {
				continue // overlap from a crash between fold and delete
			}
			if last != 0 && r.Index != last+1 {
				return fmt.Errorf("wal: %s jumps from index %d to %d: interior records are missing, refusing to replay a holed log", path, last, r.Index)
			}
			rec.Records = append(rec.Records, r)
			last = r.Index
		}
		return nil
	}
	scanAndHeal := func(path string) (scanResult, error) {
		res, err := l.scanFile(path)
		if err != nil {
			return res, err
		}
		if res.tornBytes > 0 {
			if err := l.truncateTo(path, res.validSize); err != nil {
				return res, err
			}
			rec.TruncatedBytes += res.tornBytes
			rec.TruncatedFiles++
		}
		return res, nil
	}

	compactPath := filepath.Join(l.dir, compactName)
	if haveCompact {
		res, err := scanAndHeal(compactPath)
		if err != nil {
			return nil, err
		}
		if err := absorb(compactPath, res.records, 0); err != nil {
			return nil, err
		}
		l.compactLast = last
	}
	var lastSeg scanResult
	for i, sf := range segs {
		path := filepath.Join(l.dir, sf.name)
		res, err := scanAndHeal(path)
		if err != nil {
			return nil, err
		}
		if err := absorb(path, res.records, sf.first); err != nil {
			return nil, err
		}
		if i == len(segs)-1 {
			lastSeg = res
		} else if !l.opts.NoAutoCompact {
			// A sealed segment survived a crash before its fold: fold it
			// now so steady state returns to {compact, active segment}.
			if err := l.foldRecordsLocked(res.records); err != nil {
				return nil, err
			}
			if err := l.removeDurably(path); err != nil {
				return nil, err
			}
		}
	}
	l.nextIndex = last + 1

	// Position the active segment: reuse the newest one when it still
	// names its own first record, otherwise start a fresh file.
	if n := len(segs); n > 0 {
		path := filepath.Join(l.dir, segs[n-1].name)
		if len(lastSeg.records) == 0 && segs[n-1].first != l.nextIndex {
			// Every record in it was a duplicate of the compacted prefix
			// (or torn away); its name no longer matches what we would
			// append. Drop it rather than violate the naming invariant.
			if err := l.removeDurably(path); err != nil {
				return nil, err
			}
		} else {
			f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.seg = f
			l.segPath = path
			l.segW = bufio.NewWriterSize(f, 256<<10)
			l.segRecords = int64(len(lastSeg.records))
			l.segSize = lastSeg.validSize
		}
	}
	if l.seg == nil {
		if err := l.openSegmentLocked(); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// openSegmentLocked creates the active segment for nextIndex and makes
// its directory entry durable.
func (l *Log) openSegmentLocked() error {
	path := filepath.Join(l.dir, segmentName(l.nextIndex))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := SyncDir(l.fs, l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.seg = f
	l.segPath = path
	l.segW = bufio.NewWriterSize(f, 256<<10)
	l.segRecords = 0
	l.segSize = 0
	return nil
}

// removeDurably deletes a file and fsyncs the directory so the delete
// sticks.
func (l *Log) removeDurably(path string) error {
	if err := l.fs.Remove(path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := SyncDir(l.fs, l.dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// foldRecordsLocked appends records (already validated) beyond the
// compacted prefix to compact.wal and fsyncs it.
func (l *Log) foldRecordsLocked(records []Record) error {
	var buf []byte
	for _, r := range records {
		if r.Index <= l.compactLast {
			continue
		}
		buf = appendFrame(buf, r.Index, r.Data)
		l.compactLast = r.Index
	}
	if len(buf) == 0 {
		return nil
	}
	path := filepath.Join(l.dir, compactName)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: fold: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fold: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: fold: %w", err)
	}
	if err := SyncDir(l.fs, l.dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.m.Compactions++
	l.m.CompactedBytes += uint64(len(buf))
	return nil
}

// Append writes one record, rotating the segment first when it is
// full. The record is buffered — not durable — until the next Commit,
// unless SyncBytes forces one here.
func (l *Log) Append(data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: append to closed log")
	}
	if l.err != nil {
		return 0, l.err
	}
	size := frameSize(len(data))
	if l.segRecords > 0 && l.segSize+size > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	idx := l.nextIndex
	l.encBuf = appendFrame(l.encBuf[:0], idx, data)
	if _, err := l.segW.Write(l.encBuf); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.nextIndex++
	l.segRecords++
	l.segSize += size
	l.dirty += size
	l.m.Appends++
	l.m.AppendedBytes += uint64(size)
	l.m.LastIndex = idx
	if l.opts.SyncBytes > 0 && l.dirty >= l.opts.SyncBytes {
		if err := l.commitLocked(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// Commit is the durability barrier: flush the buffered tail and fsync
// the active segment. Records appended before a successful Commit
// survive a crash; acknowledge work only after it returns.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: commit on closed log")
	}
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	// An overlapped SyncTo fsync may be in flight on the active segment's
	// handle; wait it out so this commit (and the rotation or close that
	// may follow it) never races the handle. After the wait every byte
	// the sync had claimed is either durable or the error has latched.
	for l.syncing {
		l.synced.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.dirty == 0 {
		return nil
	}
	if err := l.segW.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = 0
	l.durableIndex = l.nextIndex - 1
	l.m.Commits++
	return nil
}

// SyncTo ensures every record with index <= index is durable, returning
// whether this call performed an fsync (false: the range was already on
// disk). Unlike Commit, the fsync itself runs outside the log mutex, so
// concurrent Appends proceed while the disk syncs — the seam a pipelined
// group commit needs. Only one overlapped sync runs at a time; a second
// caller waits. A failed overlapped fsync poisons the log: the error
// latches and every later Append/Commit/SyncTo returns it, because the
// bytes the sync had claimed from the dirty window may or may not have
// reached the disk.
func (l *Log) SyncTo(index uint64) (bool, error) {
	l.mu.Lock()
	for {
		if l.closed {
			l.mu.Unlock()
			return false, errors.New("wal: sync on closed log")
		}
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return false, err
		}
		if l.durableIndex >= index {
			l.mu.Unlock()
			return false, nil
		}
		if !l.syncing {
			break
		}
		l.synced.Wait()
	}
	// Flush the buffered tail under the lock: everything appended so far
	// is handed to the OS here and covered by the fsync below, which
	// often makes the next SyncTo a no-op (natural cross-batch grouping).
	if err := l.segW.Flush(); err != nil {
		l.mu.Unlock()
		return false, fmt.Errorf("wal: %w", err)
	}
	target := l.nextIndex - 1
	f := l.seg
	l.dirty = 0
	l.syncing = true
	l.mu.Unlock()

	serr := f.Sync()

	l.mu.Lock()
	l.syncing = false
	l.synced.Broadcast()
	if serr != nil {
		l.err = fmt.Errorf("wal: %w", serr)
		err := l.err
		l.mu.Unlock()
		return true, err
	}
	if target > l.durableIndex {
		l.durableIndex = target
	}
	l.m.Commits++
	l.mu.Unlock()
	return true, nil
}

// DurableIndex reports the highest record index known to be on disk.
func (l *Log) DurableIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableIndex
}

// rotateLocked seals the active segment (committing it), folds it into
// the compacted prefix unless NoAutoCompact, and opens a fresh one.
func (l *Log) rotateLocked() error {
	if err := l.commitLocked(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sealed := l.segPath
	l.seg = nil
	l.m.Rotations++
	if !l.opts.NoAutoCompact {
		res, err := l.scanFile(sealed)
		if err != nil {
			return err
		}
		if res.tornBytes > 0 {
			// We just committed this file; a torn tail here means the
			// device lied about the fsync. Fail loudly.
			return fmt.Errorf("wal: sealed segment %s torn immediately after commit", sealed)
		}
		if err := l.foldRecordsLocked(res.records); err != nil {
			return err
		}
		if err := l.removeDurably(sealed); err != nil {
			return err
		}
	}
	return l.openSegmentLocked()
}

// Close commits and releases the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.commitLocked()
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.closed = true
	return err
}

// Metrics returns a snapshot of the log's counters.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.m
	m.DirtyBytes = l.dirty
	return m
}
