package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"clustersched/internal/wal"
)

// durableConfig is testConfig plus a WAL directory.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.WALDir = dir
	return cfg
}

// copyDir clones a WAL directory, standing in for the disk image a
// SIGKILL would leave behind: acknowledged work has been fsynced, so
// the files already contain it.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableAckImpliesRecoverable is the core durability pin: every
// acknowledged admission must survive an abrupt stop. The "crash" is a
// byte-level copy of the WAL directory taken with the first server
// still running (no Drain, no Close) — exactly the state a SIGKILL
// leaves — and a fresh server resumed over the copy must report every
// acked op and regenerate a byte-identical audit stream.
func TestDurableAckImpliesRecoverable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var audit1 bytes.Buffer
	cfg := durableConfig(dir)
	cfg.Audit = &audit1
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	hts := httptest.NewServer(s1.Handler())
	defer hts.Close()
	const n = 10
	for i := 0; i < n; i++ {
		out, resp := admitAt(t, hts.URL, float64(i)*15, AdmitRequest{
			Tenant: "t", NumProc: 1 + i%2, Runtime: 60, Deadline: 70 + float64(i%3)*20,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
		if out.Job != i+1 {
			t.Fatalf("admit %d: job seq %d, want %d", i, out.Job, i+1)
		}
	}

	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, dir, crashed)

	var audit2 bytes.Buffer
	cfg2 := durableConfig(crashed)
	cfg2.Audit = &audit2
	cfg2.Resume = true
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("resume over crash image: %v", err)
	}
	defer s2.Close()
	if got := s2.OpsApplied(); got != n {
		t.Fatalf("recovered %d ops, want %d (acked work lost)", got, n)
	}
	recs, trunc := s2.WALRecovery()
	if recs != n || trunc != 0 {
		t.Fatalf("WALRecovery = (%d, %d), want (%d, 0)", recs, trunc, n)
	}
	if !bytes.Equal(audit1.Bytes(), audit2.Bytes()) {
		t.Fatalf("recovered audit differs from live audit:\n--- live\n%s\n--- recovered\n%s", audit1.Bytes(), audit2.Bytes())
	}
}

// TestDurableTornTailRecovery: garbage appended to the active segment
// (a half-written frame at the moment of death) is truncated away on
// resume; every acked op still replays.
func TestDurableTornTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	hts := httptest.NewServer(s1.Handler())
	defer hts.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if _, resp := admitAt(t, hts.URL, float64(i)*20, AdmitRequest{NumProc: 1, Runtime: 30, Deadline: 200}); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d failed", i)
		}
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, dir, crashed)
	// Tear the newest segment's tail.
	entries, err := os.ReadDir(crashed)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			seg = filepath.Join(crashed, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no active segment in crash image")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := durableConfig(crashed)
	cfg.Resume = true
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.OpsApplied(); got != n {
		t.Fatalf("recovered %d ops, want %d", got, n)
	}
	if _, trunc := s2.WALRecovery(); trunc == 0 {
		t.Fatal("torn tail not reported in recovery")
	}
}

// TestDurableDrainResumeAuditByteIdentity mirrors the checkpoint
// byte-identity pin for WAL mode: half the script, a graceful drain, a
// resume over the same directory and the second half must reproduce the
// straight-through audit exactly.
func TestDurableDrainResumeAuditByteIdentity(t *testing.T) {
	var full bytes.Buffer
	cfgA := durableConfig(filepath.Join(t.TempDir(), "wal"))
	cfgA.Audit = &full
	sA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	htsA := httptest.NewServer(sA.Handler())
	sendSequence(t, htsA.URL, 0, seqLen)
	htsA.Close()
	if err := sA.Drain(context.Background()); err != nil {
		t.Fatalf("reference drain: %v", err)
	}
	if full.Len() == 0 {
		t.Fatal("reference run produced no audit output")
	}

	dir := filepath.Join(t.TempDir(), "wal")
	var audit1 bytes.Buffer
	cfg1 := durableConfig(dir)
	cfg1.Audit = &audit1
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	hts1 := httptest.NewServer(s1.Handler())
	sendSequence(t, hts1.URL, 0, seqLen/2)
	hts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("half drain: %v", err)
	}

	var audit2 bytes.Buffer
	cfg2 := durableConfig(dir)
	cfg2.Audit = &audit2
	cfg2.Resume = true
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	hts2 := httptest.NewServer(s2.Handler())
	sendSequence(t, hts2.URL, seqLen/2, seqLen)
	hts2.Close()
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("resumed drain: %v", err)
	}
	if !bytes.Equal(full.Bytes(), audit2.Bytes()) {
		t.Fatalf("resumed audit differs from straight-through audit:\n--- straight\n%s\n--- resumed\n%s", full.Bytes(), audit2.Bytes())
	}
}

// TestDurableQuotaBudgetSurvivesResume closes the ROADMAP gap: a fixed
// per-tenant budget keeps its spent tokens across a drain/resume
// instead of refilling.
func TestDurableQuotaBudgetSurvivesResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := durableConfig(dir)
	cfg.QuotaRate = 0
	cfg.QuotaBurst = 3
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts1 := httptest.NewServer(s1.Handler())
	for i := 0; i < 2; i++ {
		if _, resp := admitAt(t, hts1.URL, float64(i), AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 100}); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
	}
	hts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg2 := durableConfig(dir)
	cfg2.QuotaRate = 0
	cfg2.QuotaBurst = 3
	cfg2.Resume = true
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hts2 := httptest.NewServer(s2.Handler())
	defer hts2.Close()
	// One token left of the original three.
	if _, resp := admitAt(t, hts2.URL, 10, AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 100}); resp.StatusCode != http.StatusOK {
		t.Fatalf("third admit after resume: status %d, want 200", resp.StatusCode)
	}
	if _, resp := admitAt(t, hts2.URL, 11, AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 100}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fourth admit after resume: status %d, want 429 (budget silently refilled)", resp.StatusCode)
	}
}

// TestDurableQuotaReconstructionFromOps covers the SIGKILL path, where
// no quota snapshot record was written: the budget is rebuilt by
// debiting one token per logged admit op.
func TestDurableQuotaReconstructionFromOps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := durableConfig(dir)
	cfg.QuotaRate = 0
	cfg.QuotaBurst = 2
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	hts1 := httptest.NewServer(s1.Handler())
	defer hts1.Close()
	if _, resp := admitAt(t, hts1.URL, 0, AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 100}); resp.StatusCode != http.StatusOK {
		t.Fatal("first admit refused")
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, dir, crashed)

	cfg2 := durableConfig(crashed)
	cfg2.QuotaRate = 0
	cfg2.QuotaBurst = 2
	cfg2.Resume = true
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hts2 := httptest.NewServer(s2.Handler())
	defer hts2.Close()
	if _, resp := admitAt(t, hts2.URL, 1, AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 100}); resp.StatusCode != http.StatusOK {
		t.Fatal("second admit refused after crash recovery")
	}
	if _, resp := admitAt(t, hts2.URL, 2, AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 100}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatal("third admit allowed: crash refilled the budget")
	}
}

// TestDurableRefusesExistingWALWithoutResume: pointing a fresh daemon
// at a populated log without -resume must fail, not silently append.
func TestDurableRefusesExistingWALWithoutResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s1.Handler())
	admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
	hts.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durableConfig(dir)); err == nil {
		t.Fatal("existing WAL accepted without Resume")
	}
}

// TestDurableRefusesMismatchedMeta: resuming under a different cluster
// shape must fail loudly.
func TestDurableRefusesMismatchedMeta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	other := durableConfig(dir)
	other.Nodes = 8
	other.Resume = true
	if _, err := New(other); err == nil {
		t.Fatal("resume under a different cluster shape accepted")
	}
}

// TestDurableConflictsWithCheckpoint: the two persistence modes are
// mutually exclusive by construction.
func TestDurableConflictsWithCheckpoint(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := New(cfg); err == nil {
		t.Fatal("WALDir+CheckpointPath accepted")
	}
}

// TestDurableFailStopOnFsyncError: a failing fsync must answer 503
// without acknowledgment, and every later request must fail too. The
// pipeline decides (applies in memory) before the covering fsync
// returns, so exactly the first request's batch may show up in
// OpsApplied as a decided-but-unacknowledged op — the 503 marks it
// indeterminate — but once the error latches no further request may
// touch state.
func TestDurableFailStopOnFsyncError(t *testing.T) {
	cfg := durableConfig(filepath.Join(t.TempDir(), "wal"))
	cfg.WALFS = &wal.FaultFS{OnSync: func(name string) error {
		if strings.HasSuffix(name, ".wal") {
			return fmt.Errorf("injected: %w", syscall.EIO)
		}
		return nil
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	for i := 0; i < 2; i++ {
		var eresp errorResponse
		resp := postJSON(t, hts.URL+"/admit", AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100}, &eresp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("admit %d with dead log: status %d, want 503", i, resp.StatusCode)
		}
		if !strings.Contains(eresp.Error, "durability failure") {
			t.Fatalf("admit %d error %q does not name the durability failure", i, eresp.Error)
		}
	}
	if got := s.OpsApplied(); got > 1 {
		t.Fatalf("%d ops applied despite latched durability failure; only the first decided-but-unacked batch may mutate state", got)
	}
	var st StateResponse
	postJSON2 := func() {
		resp, err := http.Get(hts.URL + "/state")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if !bytes.Contains(b, []byte("wal")) {
			t.Fatalf("/state does not surface the wal error: %s", b)
		}
	}
	postJSON2()
	_ = st
}

// TestDurableGroupCommitBatches pins the fsync amortization: requests
// that pile up while the worker is busy share one commit. With the
// pipelined committer the pile's appends can even land in the WAL
// buffer before the first op's in-flight fsync flushes, in which case a
// single fsync covers all nine — so the pin is an upper bound of two
// commits, not an exact count.
func TestDurableGroupCommitBatches(t *testing.T) {
	cfg := durableConfig(filepath.Join(t.TempDir(), "wal"))
	cfg.QueueDepth = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	// Stall the worker inside its first batch by holding the state lock,
	// queue a pile of requests, then release: the pile must drain as one
	// write-ahead batch with one commit. The waitFor condition checks
	// the request counter too: queue length alone is 0 both before the
	// first request arrives and after the worker dequeues it, and only
	// the latter means the worker is parked on the lock.
	s.mu.Lock()
	unlocked := false
	defer func() {
		// A waitFor failure below would otherwise Goexit with the state
		// lock held and deadlock the deferred Close.
		if !unlocked {
			s.mu.Unlock()
		}
	}()
	done := make(chan struct{})
	go func() {
		admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
		close(done)
	}()
	waitFor(t, func() bool { return s.cRequests.v.Load() == 1 && len(s.queue) == 0 }) // worker dequeued it
	const pile = 8
	piled := make(chan struct{})
	for i := 0; i < pile; i++ {
		go func(i int) {
			admitAt(t, hts.URL, float64(1+i), AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
			piled <- struct{}{}
		}(i)
	}
	waitFor(t, func() bool { return len(s.queue) == pile })
	s.mu.Unlock()
	unlocked = true
	<-done
	for i := 0; i < pile; i++ {
		<-piled
	}
	m := s.wal.Metrics()
	if m.Appends != pile+1 {
		t.Fatalf("appends = %d, want %d", m.Appends, pile+1)
	}
	if m.Commits < 1 || m.Commits > 2 {
		t.Fatalf("commits = %d, want 1 or 2 (the pile shares a group commit, possibly folded into the first op's overlapped fsync)", m.Commits)
	}
}

// TestDurableSegmentsStayBounded: with tiny segments, rotation+fold
// keeps the directory at {meta, compact, one active segment}, with no
// op journal or spool beside the log, no matter how many ops flow through.
func TestDurableSegmentsStayBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := durableConfig(dir)
	cfg.WALSegmentBytes = 512
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	const n = 60
	for i := 0; i < n; i++ {
		if _, resp := admitAt(t, hts.URL, float64(i), AdmitRequest{NumProc: 1, Runtime: 5, Deadline: 1000}); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d failed", i)
		}
	}
	if s.journal != nil {
		t.Fatal("durable mode keeps an op journal beside its WAL")
	}
	assertNoSpool(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments on disk, want exactly 1 (compaction not folding)", segs)
	}
	if s.OpsApplied() != n {
		t.Fatalf("OpsApplied = %d, want %d", s.OpsApplied(), n)
	}
}

// TestDurableWALMetricsExported: the serve_wal_* family shows up on
// /metrics in durable mode.
func TestDurableWALMetricsExported(t *testing.T) {
	cfg := durableConfig(filepath.Join(t.TempDir(), "wal"))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"serve_wal_appends_total", "serve_wal_commits_total", "serve_wal_dirty_bytes",
		"serve_wal_last_index", "serve_wal_recovery_truncated_bytes", "serve_wal_fsync_seconds",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestCheckpointChecksumRefusesCorruption: flipping one byte in a drain
// checkpoint body must fail the resume before any op replays.
func TestCheckpointChecksumRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.ckpt")
	cfg := testConfig()
	cfg.CheckpointPath = ckpt
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 2, Runtime: 10, Deadline: 100})
	hts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a digit inside the op body (past the header line).
	i := bytes.LastIndexByte(data, '2')
	if i < 0 {
		t.Fatal("no corruptible byte found")
	}
	data[i] = '3'
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.CheckpointPath = ckpt
	cfg2.Resume = true
	if _, err := New(cfg2); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checkpoint replayed (err = %v)", err)
	}
}
