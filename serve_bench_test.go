package clustersched

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"clustersched/internal/serve"
)

// persistence is how a ServeAdmit server keeps its applied ops.
type persistence int

const (
	inMemory        persistence = iota // no persistence
	durableWAL                         // a write-ahead log, fsynced before each answer
	drainCheckpoint                    // the op journal a drain checkpoints
)

// serveAdmitOp is one admission straight through the handler of a
// 128-node request-driven server — JSON decode, shed/quota checks, queue
// round-trip through the apply worker, virtual-time advance, policy
// Submit — without a network in the way. Every ServeAdmit variant starts
// from the same config, so their numbers compare directly: persist picks
// how the server keeps its applied ops, and spans turns request tracing
// on. Virtual time advances
// one second per request so the cluster reaches a steady state instead
// of filling up.
func serveAdmitOp(persist persistence, spans bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		cfg := serve.Config{
			Policy:     "librarisk",
			Nodes:      128,
			TimeScale:  0, // request-driven clock: deterministic, no wall coupling
			QueueDepth: 1024,
			Spans:      spans,
		}
		switch persist {
		case durableWAL:
			cfg.WALDir = tb.TempDir()
		case drainCheckpoint:
			cfg.CheckpointPath = filepath.Join(tb.TempDir(), "drain.ckpt")
		}
		s, err := serve.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		h := s.Handler()
		n := 0
		tb.Cleanup(func() {
			if got := s.OpsApplied(); got != n {
				tb.Errorf("applied %d ops, want %d", got, n)
			}
			s.Close()
		})
		op := func() {
			t := float64(n)
			body, _ := json.Marshal(serve.AdmitRequest{
				NumProc:  1,
				Runtime:  30,
				Deadline: 300,
				T:        &t,
			})
			req := httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				tb.Fatalf("request %d: status %d: %s", n, rr.Code, rr.Body.String())
			}
			n++
		}
		// Warm up first: early requests allocate more than steady state
		// (ServeAdmit measured 44 allocs/op over requests 100–200, 41 from
		// request 300 on).
		for n < 300 {
			op()
		}
		return op
	}
}

// BenchmarkServeAdmit measures the sequential full HTTP admission path.
func BenchmarkServeAdmit(b *testing.B) { benchOp(b, serveAdmitOp(inMemory, false)) }

// BenchmarkServeAdmitDurable adds the write-ahead log: every op is
// fsynced before its response through the two-stage pipeline (decide
// overlaps the previous batch's group-commit fsync). Dominated by
// fsync latency on real disks.
func BenchmarkServeAdmitDurable(b *testing.B) { benchOp(b, serveAdmitOp(durableWAL, false)) }

// BenchmarkServeAdmitCheckpoint runs the sequential path in checkpoint
// mode: every applied op is encoded into the on-disk op journal a drain
// checkpoints, buffered and never fsynced.
func BenchmarkServeAdmitCheckpoint(b *testing.B) { benchOp(b, serveAdmitOp(drainCheckpoint, false)) }

// BenchmarkServeAdmitSpans measures the sequential path with request
// tracing on: one span allocation per request, contiguous stage stamps,
// a lock-free ring publish, and the stage-histogram fold. Its delta
// against BenchmarkServeAdmit is the whole cost of observability; the
// spans-OFF cost is pinned at zero by TestSpanHelpersZeroAllocWhenDisabled.
func BenchmarkServeAdmitSpans(b *testing.B) { benchOp(b, serveAdmitOp(inMemory, true)) }

// BenchmarkServeAdmitDurableSpans traces the full durable pipeline:
// gather/append/commit stamps ride the group-commit batches.
func BenchmarkServeAdmitDurableSpans(b *testing.B) { benchOp(b, serveAdmitOp(durableWAL, true)) }
