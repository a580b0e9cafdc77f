package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// appendAll appends each payload and commits once.
func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func recordStrings(rec *Recovery) []string {
	out := make([]string, 0, len(rec.Records))
	for _, r := range rec.Records {
		out = append(out, string(r.Data))
	}
	return out
}

func TestWALAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, Options{Dir: dir})
	if len(rec.Records) != 0 {
		t.Fatalf("fresh log recovered %d records", len(rec.Records))
	}
	appendAll(t, l, "a", "bb", "ccc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	want := []string{"a", "bb", "ccc"}
	got := recordStrings(rec2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i, r := range rec2.Records {
		if r.Index != uint64(i+1) {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", rec2.TruncatedBytes)
	}
	// Appending continues the index sequence.
	idx, err := l2.Append([]byte("dddd"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Fatalf("next index %d, want 4", idx)
	}
}

// TestWALUncommittedTailIsNotRecovered pins the contract: only
// committed records are guaranteed back. (They may still appear if the
// OS flushed them, so the test routes writes through a buffer the
// "crash" discards: we simply never flush the bufio layer.)
func TestWALUncommittedTailMayVanish(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SyncBytes: -1})
	appendAll(t, l, "durable")
	if _, err := l.Append([]byte("buffered-only")); err != nil {
		t.Fatal(err)
	}
	// Crash without commit: drop the log on the floor (no Close).
	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	got := recordStrings(rec)
	if len(got) < 1 || got[0] != "durable" {
		t.Fatalf("committed record lost: %v", got)
	}
}

// corruptTail opens the single tail segment and applies f to its bytes.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segmentPrefix) {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly one segment, have %v", segs)
	}
	return segs[0]
}

// writeLog builds a committed three-record log and returns the segment
// path.
func writeLog(t *testing.T, dir string) string {
	t.Helper()
	l, _ := openT(t, Options{Dir: dir})
	appendAll(t, l, "one", "two", "three")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return tailSegment(t, dir)
}

// TestWALTornTailCorpus drives recovery over every torn-tail shape the
// issue names: a truncated frame, a corrupted checksum, a short header,
// and trailing garbage. Each must recover the intact prefix by
// truncation — reporting the loss — and leave the log appendable.
func TestWALTornTailCorpus(t *testing.T) {
	cases := []struct {
		name string
		// mangle rewrites the segment bytes.
		mangle func(b []byte) []byte
		// want is the surviving prefix.
		want []string
	}{
		{"truncated-frame", func(b []byte) []byte { return b[:len(b)-2] }, []string{"one", "two"}},
		{"bad-crc", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, []string{"one", "two"}},
		{"short-header", func(b []byte) []byte {
			// Leave 3 bytes of a new frame header after the last record.
			return append(b, 0x09, 0x00, 0x00)
		}, []string{"one", "two", "three"}},
		{"zero-fill", func(b []byte) []byte {
			// A power-loss-style zero tail: length 0 is implausible.
			return append(b, make([]byte, 64)...)
		}, []string{"one", "two", "three"}},
		{"implausible-length", func(b []byte) []byte {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
			return append(b, hdr[:]...)
		}, []string{"one", "two", "three"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := writeLog(t, dir)
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tc.mangle(append([]byte(nil), b...)), 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec := openT(t, Options{Dir: dir})
			got := recordStrings(rec)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
			if rec.TruncatedBytes == 0 {
				t.Fatalf("torn tail not reported")
			}
			// The log keeps working: append, commit, reopen clean.
			appendAll(t, l, "after")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rec2 := openT(t, Options{Dir: dir})
			defer l2.Close()
			if rec2.TruncatedBytes != 0 {
				t.Fatalf("second recovery still torn (%d bytes): truncation was not durable", rec2.TruncatedBytes)
			}
			got2 := recordStrings(rec2)
			if got2[len(got2)-1] != "after" {
				t.Fatalf("post-truncation append lost: %v", got2)
			}
		})
	}
}

// TestWALInteriorHoleRefused pins the loud-failure path: when a file in
// the middle of the sequence lost records that later files continue
// past, recovery must refuse rather than silently replay around the
// hole.
func TestWALInteriorHoleRefused(t *testing.T) {
	dir := t.TempDir()
	// compact.wal holding records 1..2, a segment declaring it starts at
	// index 5: records 3..4 are gone.
	var buf []byte
	buf = appendFrame(buf, 1, []byte("one"))
	buf = appendFrame(buf, 2, []byte("two"))
	if err := os.WriteFile(filepath.Join(dir, compactName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	seg = appendFrame(seg, 5, []byte("five"))
	if err := os.WriteFile(filepath.Join(dir, segmentName(5)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("holed log accepted")
	} else if !strings.Contains(err.Error(), "holed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestWALFoldOverlapDeduped reconstructs the crash window between
// folding a sealed segment into compact.wal and deleting it: the same
// records exist in both files, and recovery must keep exactly one copy.
func TestWALFoldOverlapDeduped(t *testing.T) {
	dir := t.TempDir()
	var compact []byte
	for i := uint64(1); i <= 5; i++ {
		compact = appendFrame(compact, i, []byte(fmt.Sprintf("r%d", i)))
	}
	if err := os.WriteFile(filepath.Join(dir, compactName), compact, 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for i := uint64(4); i <= 8; i++ {
		seg = appendFrame(seg, i, []byte(fmt.Sprintf("r%d", i)))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, Options{Dir: dir})
	defer l.Close()
	if len(rec.Records) != 8 {
		t.Fatalf("recovered %d records, want 8: %v", len(rec.Records), recordStrings(rec))
	}
	for i, r := range rec.Records {
		if r.Index != uint64(i+1) || string(r.Data) != fmt.Sprintf("r%d", i+1) {
			t.Fatalf("record %d = (%d, %q)", i, r.Index, r.Data)
		}
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 128})
	var want []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("payload-%02d", i)
		want = append(want, p)
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if m.Rotations == 0 || m.Compactions == 0 {
		t.Fatalf("no rotation/compaction at tiny segment size: %+v", m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Steady state: compact.wal plus exactly one tail segment.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segCount := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segmentPrefix) {
			segCount++
		}
	}
	if segCount != 1 {
		t.Fatalf("%d tail segments after compaction, want 1", segCount)
	}
	_, rec := openT(t, Options{Dir: dir, SegmentBytes: 128})
	if fmt.Sprint(recordStrings(rec)) != fmt.Sprint(want) {
		t.Fatalf("compacted recovery mismatch:\n got %v\nwant %v", recordStrings(rec), want)
	}
}

// TestWALSealedSegmentsFoldOnOpen pins crash recovery of the compactor
// itself: sealed segments left on disk (NoAutoCompact, or a crash
// before folding) are folded into the compacted prefix at the next
// Open.
func TestWALSealedSegmentsFoldOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 96, NoAutoCompact: true})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, Options{Dir: dir, SegmentBytes: 96})
	if len(rec.Records) != 20 {
		t.Fatalf("recovered %d records, want 20", len(rec.Records))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	segCount := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segmentPrefix) {
			segCount++
		}
	}
	if segCount != 1 {
		t.Fatalf("%d tail segments after fold-on-open, want 1", segCount)
	}
}

func TestWALSyncBytesAutoCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SyncBytes: 64})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("x"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	m := l.Metrics()
	if m.Commits == 0 {
		t.Fatal("SyncBytes threshold never forced a commit")
	}
	if m.DirtyBytes >= 64 {
		t.Fatalf("dirty bytes %d not bounded by SyncBytes", m.DirtyBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALFsyncFailureSurfaces injects an fsync error at commit: the
// error must surface to the caller (who will refuse to acknowledge),
// and the log must still recover its previously committed prefix.
func TestWALFsyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	var failing bool
	ffs := &FaultFS{OnSync: func(name string) error {
		if failing && strings.Contains(name, segmentPrefix) {
			return fmt.Errorf("injected fsync failure: %w", syscall.EIO)
		}
		return nil
	}}
	l, _ := openT(t, Options{Dir: dir, FS: ffs})
	appendAll(t, l, "safe")
	failing = true
	if _, err := l.Append([]byte("doomed")); err != nil {
		t.Fatalf("buffered append should not fail: %v", err)
	}
	if err := l.Commit(); err == nil {
		t.Fatal("commit swallowed the fsync failure")
	}
	failing = false
	_, rec := openT(t, Options{Dir: dir})
	got := recordStrings(rec)
	if len(got) == 0 || got[0] != "safe" {
		t.Fatalf("committed prefix lost after fsync failure: %v", got)
	}
}

// TestWALShortWriteRecovers injects a short write (ENOSPC mid-frame):
// the commit fails, and recovery truncates the torn frame, keeping the
// intact prefix.
func TestWALShortWriteRecovers(t *testing.T) {
	dir := t.TempDir()
	armed := false
	ffs := &FaultFS{OnWrite: func(name string, p []byte) (int, error, bool) {
		if armed && strings.Contains(name, segmentPrefix) {
			n := len(p) / 2
			return n, fmt.Errorf("injected: %w", syscall.ENOSPC), true
		}
		return 0, nil, false
	}}
	l, _ := openT(t, Options{Dir: dir, FS: ffs})
	appendAll(t, l, "intact-one", "intact-two")
	armed = true
	_, aerr := l.Append([]byte("this-frame-tears-on-disk"))
	cerr := l.Commit()
	if aerr == nil && cerr == nil {
		t.Fatal("short write surfaced no error")
	}
	armed = false
	_, rec := openT(t, Options{Dir: dir})
	got := recordStrings(rec)
	if fmt.Sprint(got) != fmt.Sprint([]string{"intact-one", "intact-two"}) {
		t.Fatalf("recovered %v, want the intact prefix", got)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn frame from the short write not reported")
	}
}

// TestWALNegativeSegmentBytesRefused: a negative segment bound would
// rotate, and fold, on every append after the first, so Open refuses it
// before it touches the directory.
func TestWALNegativeSegmentBytesRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _, err := Open(Options{Dir: dir, SegmentBytes: -1})
	if err == nil {
		l.Close()
		t.Fatal("Open accepted SegmentBytes -1")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused Open left %s behind (stat: %v)", dir, err)
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWALMetricsAccounting(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendAll(t, l, "a", "b")
	m := l.Metrics()
	if m.Appends != 2 || m.Commits != 1 || m.LastIndex != 2 || m.DirtyBytes != 0 {
		t.Fatalf("metrics %+v", m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := openT(t, Options{Dir: dir})
	defer l2.Close()
	m2 := l2.Metrics()
	if m2.RecoveredRecords != 2 || m2.LastIndex != 2 {
		t.Fatalf("post-recovery metrics %+v", m2)
	}
}

// TestWALDirectorySyncOnSegmentLifecycle asserts the directory fsync
// barrier actually fires when segment files are created and deleted.
func TestWALDirectorySyncOnSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	l, _ := openT(t, Options{Dir: dir, FS: ffs, SegmentBytes: 64})
	for i := 0; i < 8; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("y"), 24)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	dirSyncs := 0
	for _, p := range ffs.Syncs() {
		if p == dir {
			dirSyncs++
		}
	}
	if dirSyncs < 2 {
		t.Fatalf("only %d directory fsyncs across segment create/rotate/delete", dirSyncs)
	}
}

func TestWALSyncToOverlapsAppends(t *testing.T) {
	dir := t.TempDir()
	// Hold the fsync open until released, so the test can prove Appends
	// proceed while a SyncTo is in flight.
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	var gated atomic.Bool
	ffs := &FaultFS{OnSync: func(name string) error {
		if gated.Load() && strings.Contains(name, segmentPrefix) {
			entered <- struct{}{}
			<-gate
		}
		return nil
	}}
	l, _ := openT(t, Options{Dir: dir, FS: ffs})
	defer l.Close()

	idx1, err := l.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	gated.Store(true)
	syncDone := make(chan error, 1)
	go func() {
		_, err := l.SyncTo(idx1)
		syncDone <- err
	}()
	<-entered // the fsync is in flight, mutex released

	// Appends must complete while the sync blocks.
	appended := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("second"))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("Append during SyncTo: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked behind an in-flight SyncTo fsync")
	}

	gated.Store(false)
	close(gate)
	if err := <-syncDone; err != nil {
		t.Fatalf("SyncTo: %v", err)
	}
	if got := l.DurableIndex(); got < idx1 {
		t.Fatalf("DurableIndex %d, want >= %d", got, idx1)
	}
}

func TestWALSyncToAlreadyDurableIsNoop(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	defer l.Close()
	idx, err := l.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if synced, err := l.SyncTo(idx); err != nil || !synced {
		t.Fatalf("first SyncTo = (%v, %v), want (true, nil)", synced, err)
	}
	if synced, err := l.SyncTo(idx); err != nil || synced {
		t.Fatalf("second SyncTo = (%v, %v), want (false, nil)", synced, err)
	}
	// A flush by a later SyncTo covers records appended before it, so the
	// next SyncTo for them is also a no-op.
	idx2, _ := l.Append([]byte("y"))
	idx3, _ := l.Append([]byte("z"))
	if synced, err := l.SyncTo(idx3); err != nil || !synced {
		t.Fatalf("SyncTo(%d) = (%v, %v), want (true, nil)", idx3, synced, err)
	}
	if synced, err := l.SyncTo(idx2); err != nil || synced {
		t.Fatalf("SyncTo(%d) after covering sync = (%v, %v), want (false, nil)", idx2, synced, err)
	}
}

func TestWALSyncToFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	ffs := &FaultFS{OnSync: func(name string) error {
		if fail.Load() && strings.Contains(name, segmentPrefix) {
			return fmt.Errorf("injected sync failure")
		}
		return nil
	}}
	l, _ := openT(t, Options{Dir: dir, FS: ffs})
	idx, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if _, err := l.SyncTo(idx); err == nil {
		t.Fatal("SyncTo succeeded through an injected fsync failure")
	}
	// The overlapped sync claimed the dirty bytes before failing: the log
	// must latch rather than pretend a retry could make them durable.
	if _, err := l.Append([]byte("more")); err == nil {
		t.Fatal("Append succeeded on a poisoned log")
	}
	if err := l.Commit(); err == nil {
		t.Fatal("Commit succeeded on a poisoned log")
	}
	if _, err := l.SyncTo(idx); err == nil {
		t.Fatal("SyncTo succeeded on a poisoned log")
	}
}

func TestWALCommitWaitsForInflightSync(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	var gated atomic.Bool
	ffs := &FaultFS{OnSync: func(name string) error {
		if gated.Load() && strings.Contains(name, segmentPrefix) {
			gated.Store(false) // gate only the overlapped sync
			entered <- struct{}{}
			<-gate
		}
		return nil
	}}
	// Tiny segments force a rotation — the path that closes the active
	// segment file and must never race the overlapped fsync's handle.
	l, _ := openT(t, Options{Dir: dir, FS: ffs, SegmentBytes: 64})
	defer l.Close()
	idx, err := l.Append([]byte("held"))
	if err != nil {
		t.Fatal(err)
	}
	gated.Store(true)
	syncDone := make(chan error, 1)
	go func() {
		_, err := l.SyncTo(idx)
		syncDone <- err
	}()
	<-entered

	// This append overflows the 64-byte segment and rotates, which seals
	// (fsyncs + closes) the very file the in-flight SyncTo holds; the
	// rotation must block until the sync clears instead of closing it.
	rotated := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte(strings.Repeat("r", 64)))
		rotated <- err
	}()
	select {
	case err := <-rotated:
		t.Fatalf("rotation completed during an in-flight sync (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Blocked, as required.
	}
	close(gate)
	if err := <-syncDone; err != nil {
		t.Fatalf("SyncTo: %v", err)
	}
	if err := <-rotated; err != nil {
		t.Fatalf("Append/rotate after sync released: %v", err)
	}
	if m := l.Metrics(); m.Rotations != 1 {
		t.Fatalf("rotations %d, want 1", m.Rotations)
	}
}

func TestWALSyncToConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 4 << 10})
	var wg sync.WaitGroup
	var lastIdx atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			idx, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
			if err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			lastIdx.Store(idx)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := l.SyncTo(lastIdx.Load()); err != nil {
				t.Errorf("SyncTo: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, Options{Dir: dir})
	if len(rec.Records) != 500 {
		t.Fatalf("recovered %d records, want 500", len(rec.Records))
	}
}
