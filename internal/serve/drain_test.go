package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestDrainRefusesNewWorkAndIsIdempotent(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
	resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admit while drained: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain refusal missing Retry-After")
	}
	// Health stays green through and after a drain.
	hresp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after drain: %d", hresp.StatusCode)
	}
	// Second drain returns the same (nil) result without re-running.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestDrainAnswersInFlightRequests pins the drain contract: requests
// already queued when the drain starts still get real decisions.
func TestDrainAnswersInFlightRequests(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 16
	cfg.RequestTimeout = time.Minute
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	// Block the worker mid-apply, queue up requests, then drain.
	s.mu.Lock()
	const n = 5
	var wg sync.WaitGroup
	statuses := make([]int, n)
	accepted := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
			resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			var out AdmitResponse
			if resp.StatusCode == http.StatusOK {
				json.NewDecoder(resp.Body).Decode(&out)
				accepted[i] = out.Accepted
			}
		}(i)
	}
	waitFor(t, func() bool { return len(s.queue) >= n-1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	// The drain must be waiting on the queued work, not discarding it.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-drainDone:
		s.mu.Unlock()
		t.Fatal("drain completed while requests were still queued")
	default:
	}
	s.mu.Unlock()
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("in-flight request %d: status %d, want 200", i, st)
		}
		if st == http.StatusOK && !accepted[i] {
			t.Errorf("in-flight request %d rejected on an empty 4-node cluster", i)
		}
	}
}

func TestDrainTimeoutReportsError(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = time.Minute
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the worker behind the state lock with one queued request,
	// then drain with an immediate deadline.
	s.mu.Lock()
	p := &pending{
		op:       Op{NumProc: 1, Runtime: 10, Estimate: 10, Deadline: 100},
		deadline: time.Now().Add(time.Hour),
		resp:     make(chan applied, 1),
	}
	if err := s.enqueue(p); err != nil {
		s.mu.Unlock()
		t.Fatalf("enqueue: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("stuck drain reported success")
	}
	s.mu.Unlock()
	// The worker still answers the queued request on its way out.
	if a := <-p.resp; a.timedOut {
		t.Error("queued request expired instead of being applied")
	}
}

func TestNoGoroutineLeakAcrossServerLifecycles(t *testing.T) {
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		cfg := testConfig()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(s.Handler())
		for i := 0; i < 10; i++ {
			b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
			resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		hts.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("cycle %d Close: %v", cycle, err)
		}
	}
	// Goroutine counts settle asynchronously (closed connections, timer
	// goroutines); poll rather than assert instantly.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 3 server lifecycles", before, runtime.NumGoroutine())
}

// sendSequence plays a fixed request script against a server, strictly
// sequentially so the applied order — and therefore the audit stream —
// is deterministic.
func sendSequence(t *testing.T, base string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		at := float64(i) * 15
		if i == 6 {
			// A mid-stream node crash, so the resubmission path is part of
			// the identity being checked.
			tt := at
			postJSON(t, base+"/node", NodeRequest{Node: 1, Down: true, T: &tt}, nil)
			continue
		}
		req := AdmitRequest{
			Tenant:  "seq",
			NumProc: 1 + i%2,
			Runtime: 60,
			// Tight deadlines so the script produces both accepts and
			// rejects.
			Deadline: 70 + float64(i%3)*20,
		}
		admitAt(t, base, at, req)
	}
}

const seqLen = 14

// TestDrainResumeAuditByteIdentity is the acceptance pin for the
// checkpoint/replay path: run a request script straight through (audit
// A), then run its first half, drain to a checkpoint, resume a fresh
// daemon from it and run the second half (audit B). A and B must be
// byte-identical.
func TestDrainResumeAuditByteIdentity(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, resume bool, play func(base string)) []byte {
		var audit bytes.Buffer
		cfg := testConfig()
		cfg.Audit = &audit
		cfg.CheckpointPath = filepath.Join(dir, name+".ckpt")
		cfg.Resume = resume
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		hts := httptest.NewServer(s.Handler())
		play(hts.URL)
		hts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("%s: Drain: %v", name, err)
		}
		return audit.Bytes()
	}

	full := run("full", false, func(base string) { sendSequence(t, base, 0, seqLen) })
	if len(full) == 0 {
		t.Fatal("reference run produced no audit output")
	}

	// Half one, drained to a checkpoint.
	half := filepath.Join(dir, "half.ckpt")
	var auditB1 bytes.Buffer
	cfgB := testConfig()
	cfgB.Audit = &auditB1
	cfgB.CheckpointPath = half
	s1, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	hts1 := httptest.NewServer(s1.Handler())
	sendSequence(t, hts1.URL, 0, seqLen/2)
	hts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("half drain: %v", err)
	}
	if _, err := os.Stat(half); err != nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}

	// Resume and play the rest. The resumed daemon re-emits the replayed
	// half's audit, then continues.
	var auditB2 bytes.Buffer
	cfgC := testConfig()
	cfgC.Audit = &auditB2
	cfgC.CheckpointPath = half
	cfgC.Resume = true
	s2, err := New(cfgC)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	hts2 := httptest.NewServer(s2.Handler())
	sendSequence(t, hts2.URL, seqLen/2, seqLen)
	hts2.Close()
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("resumed drain: %v", err)
	}

	if !bytes.Equal(full, auditB2.Bytes()) {
		t.Fatalf("resumed audit differs from straight-through audit:\n--- straight (%d bytes)\n%s\n--- resumed (%d bytes)\n%s",
			len(full), full, len(auditB2.Bytes()), auditB2.Bytes())
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.ckpt")
	cfg := testConfig()
	cfg.CheckpointPath = ckpt
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
	hts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.Nodes = 8 // different cluster shape
	other.CheckpointPath = ckpt
	other.Resume = true
	if _, err := New(other); err == nil {
		t.Fatal("resume under a different cluster shape accepted")
	}
}

func TestResumeMissingCheckpointIsFreshStart(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "never-written.ckpt")
	cfg.Resume = true
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("resume with no checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStateCountersSurviveResume pins the decision counters across a
// restart: /state's admitted/rejected and the serve_*_total families
// (per-tenant included) describe the cluster's whole history, like
// ops_applied, so a drain → resume must hand them over unchanged — for
// the drain checkpoint and for the write-ahead log alike.
func TestStateCountersSurviveResume(t *testing.T) {
	names := []string{
		"serve_ops_applied_total",
		"serve_admitted_total",
		"serve_rejected_total",
		`serve_tenant_admits_total{tenant="seq"}`,
		`serve_tenant_rejects_total{tenant="seq"}`,
	}
	snapshot := func(base string) (StateResponse, []float64) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, len(names))
		for i, n := range names {
			vals[i] = metricCounter(t, body.String(), n)
		}
		return stateOf(t, base), vals
	}
	for _, mode := range []string{"checkpoint", "wal"} {
		t.Run(mode, func(t *testing.T) {
			cfg := testConfig()
			if mode == "wal" {
				cfg.WALDir = filepath.Join(t.TempDir(), "wal")
			} else {
				cfg.CheckpointPath = filepath.Join(t.TempDir(), "drain.ckpt")
			}
			s1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hts1 := httptest.NewServer(s1.Handler())
			sendSequence(t, hts1.URL, 0, seqLen)
			before, beforeVals := snapshot(hts1.URL)
			hts1.Close()
			if err := s1.Drain(context.Background()); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if before.Admitted == 0 || before.Rejected == 0 {
				t.Fatalf("script must both admit and reject, got %d/%d", before.Admitted, before.Rejected)
			}
			const nodeOps = 1 // sendSequence crashes one node mid-stream
			if got := int(before.Admitted+before.Rejected) + nodeOps; got != before.OpsApplied {
				t.Errorf("admitted %d + rejected %d + %d node op = %d, want ops_applied %d",
					before.Admitted, before.Rejected, nodeOps, got, before.OpsApplied)
			}

			cfg.Resume = true
			s2, err := New(cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			hts2 := httptest.NewServer(s2.Handler())
			after, afterVals := snapshot(hts2.URL)
			hts2.Close()
			if err := s2.Drain(context.Background()); err != nil {
				t.Fatalf("resumed drain: %v", err)
			}
			if after.OpsApplied != before.OpsApplied || after.Admitted != before.Admitted || after.Rejected != before.Rejected {
				t.Errorf("/state after resume: ops_applied %d admitted %d rejected %d, want %d/%d/%d",
					after.OpsApplied, after.Admitted, after.Rejected,
					before.OpsApplied, before.Admitted, before.Rejected)
			}
			for i, n := range names {
				if afterVals[i] != beforeVals[i] {
					t.Errorf("%s after resume = %g, want %g", n, afterVals[i], beforeVals[i])
				}
			}
		})
	}
}
