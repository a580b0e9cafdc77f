package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"clustersched/internal/wal"
)

// drainedCheckpoint runs sendSequence's ops [from, to) through a
// checkpoint-mode server at path, resuming from it when resume is set,
// and drains it.
func drainedCheckpoint(t *testing.T, path string, resume bool, from, to int) {
	t.Helper()
	cfg := testConfig()
	cfg.CheckpointPath, cfg.Resume = path, resume
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hts := httptest.NewServer(s.Handler())
	sendSequence(t, hts.URL, from, to)
	hts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// assertNoSpool fails if dir holds an op-journal spool file.
func assertNoSpool(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), spoolSuffix) {
			t.Fatalf("%s holds a spool file %s", dir, e.Name())
		}
	}
}

// TestJournalFailureKeepsPreviousCheckpoint: when the op journal's spool
// cannot be written mid-run, or the drain cannot land the new checkpoint,
// the daemon keeps serving, /state (for the journal) and Drain name the
// failure, and the checkpoint the run resumed from stays byte-identical.
func TestJournalFailureKeepsPreviousCheckpoint(t *testing.T) {
	errDisk := errors.New("injected disk failure")
	for _, tc := range []struct {
		name    string
		fault   func(armed *atomic.Bool) *wal.FaultFS
		live    bool   // the failure shows on /state before drain
		wantErr string // in Drain's error
	}{
		{"spool write", func(armed *atomic.Bool) *wal.FaultFS {
			return &wal.FaultFS{OnWrite: func(name string, p []byte) (int, error, bool) {
				if armed.Load() && strings.HasSuffix(name, spoolSuffix) {
					return 0, syscall.ENOSPC, true
				}
				return 0, nil, false
			}}
		}, true, "checkpoint journal"},
		{"checkpoint rename", func(armed *atomic.Bool) *wal.FaultFS {
			return &wal.FaultFS{OnRename: func(oldpath, newpath string) error {
				return errDisk
			}}
		}, false, errDisk.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "drain.ckpt")
			drainedCheckpoint(t, ckpt, false, 0, seqLen)
			before, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}

			var armed atomic.Bool
			cfg := testConfig()
			cfg.CheckpointPath, cfg.Resume, cfg.WALFS = ckpt, true, tc.fault(&armed)
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			armed.Store(true)
			hts := httptest.NewServer(s.Handler())
			// Enough ops to spill the spool's 64 KiB buffer to the file.
			for i := 0; i < 1500; i++ {
				if _, resp := admitAt(t, hts.URL, float64(1000+i), AdmitRequest{NumProc: 1, Runtime: 5, Deadline: 1000}); resp.StatusCode != http.StatusOK {
					t.Fatalf("admit %d: status %d: serving must continue past a journal failure", i, resp.StatusCode)
				}
			}
			st := stateOf(t, hts.URL)
			hts.Close()
			if tc.live && !strings.Contains(st.Err, "checkpoint journal") {
				t.Errorf("/state err = %q, want the journal failure", st.Err)
			}
			err = s.Drain(context.Background())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Drain = %v, want an error containing %q", err, tc.wantErr)
			}
			after, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatal("a failed drain changed the previous checkpoint")
			}
			if matches, _ := filepath.Glob(ckpt + ".tmp-*"); len(matches) != 0 {
				t.Fatalf("failed drain left temp files %v", matches)
			}
		})
	}
}

// TestResumeNeverReadsStaleSpool: a spool a killed run left beside the
// checkpoint is truncated at boot, never replayed, so the drain after a
// resume is byte-identical to one uninterrupted run — and leaves no spool.
func TestResumeNeverReadsStaleSpool(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	drainedCheckpoint(t, full, false, 0, seqLen)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	half := filepath.Join(dir, "half.ckpt")
	drainedCheckpoint(t, half, false, 0, seqLen/2)
	stale, err := checkpointBytes(testConfig(), []Op{validAdmit(99, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	stale = append(stale, "\x00\xff not json\n"...)
	if err := os.WriteFile(half+spoolSuffix, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	drainedCheckpoint(t, half, true, seqLen/2, seqLen)
	got, err := os.ReadFile(half)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drain → stale spool → resume → drain differs from one straight run:\n--- straight\n%s--- resumed\n%s", want, got)
	}
	assertNoSpool(t, dir)
}

// TestCheckpointPathUnwritableFailsAtBoot: a checkpoint path the daemon
// cannot write is refused by New, not discovered at drain after a whole
// run of ops.
func TestCheckpointPathUnwritableFailsAtBoot(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing", "drain.ckpt")
	s, err := New(cfg)
	if err == nil {
		s.Close()
		t.Fatal("New accepted a checkpoint path in a missing directory")
	}
	if !strings.Contains(err.Error(), "checkpoint journal") {
		t.Fatalf("error %q does not name the journal", err)
	}
}

// TestReplayErrorNamesPhysicalLine: blank lines count, so the line a
// replay error names is the one an editor opens.
func TestReplayErrorNamesPhysicalLine(t *testing.T) {
	cfg := testConfig()
	data, err := checkpointBytes(cfg, []Op{validAdmit(1, 0), {Seq: 2, T: 5, Kind: "reboot"}})
	if err != nil {
		t.Fatal(err)
	}
	// Header, two blank lines, the valid op, the bad op: line 5.
	hdrEnd := bytes.IndexByte(data, '\n') + 1
	data = append(append(append([]byte(nil), data[:hdrEnd]...), "\n\r\n"...), data[hdrEnd:]...)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath, cfg.Resume = path, true
	s, err := New(cfg)
	if err == nil {
		s.Close()
		t.Fatal("resumed over an op of unknown kind")
	}
	if !strings.Contains(err.Error(), "line 5:") {
		t.Fatalf("error %q does not name physical line 5", err)
	}
}
