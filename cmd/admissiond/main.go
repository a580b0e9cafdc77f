// Command admissiond serves online deadline-constrained admission
// control over HTTP: the EDF/Libra/LibraRisk policies wrapped around a
// live virtual-time cluster, with per-tenant quotas, admission-queue
// backpressure, a load-shedding ladder, Prometheus metrics on /metrics,
// an audit JSONL stream, and graceful drain with checkpoint/resume.
//
// Examples:
//
//	admissiond -addr :8080 -policy librarisk -nodes 128
//	admissiond -addr :8080 -quota-rate 10 -quota-burst 50 -audit audit.jsonl
//	admissiond -addr 127.0.0.1:0 -time-scale 0 -checkpoint d.ckpt -resume
//	admissiond -addr 127.0.0.1:0 -durable /var/lib/admissiond/wal -resume
//	admissiond -addr 127.0.0.1:0 -spans   # per-request tracing on /debug/spans
//
// SIGTERM (or SIGINT) starts the drain: intake stops, queued requests
// are decided, the audit stream is flushed, the checkpoint is written,
// and the process exits 0. A second signal force-kills a stuck drain.
//
// With -durable DIR every applied operation is committed to a
// crash-consistent write-ahead log before its HTTP response, so even
// SIGKILL or power loss cannot lose an acknowledged admission; -resume
// replays the log (truncating any torn tail) on the next boot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"clustersched/internal/cli"
	"clustersched/internal/serve"
)

func main() {
	cli.MainServer("admissiond", run)
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("admissiond", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	policy := fs.String("policy", "librarisk", "admission control: edf | libra | librarisk")
	nodes := fs.Int("nodes", 128, "computation nodes")
	rating := fs.Float64("rating", 168, "SPEC rating per node")
	sigma := fs.Float64("sigma", 0, "LibraRisk σ threshold (0 = paper's zero-risk rule)")
	timeScale := fs.Float64("time-scale", 1, "virtual seconds per wall second (0 = request-driven clock)")
	queueDepth := fs.Int("queue-depth", 256, "admission queue bound")
	reqTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request admission deadline")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant sustained admissions/sec (0 with no burst = unlimited)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant burst credit (bucket depth)")
	auditPath := fs.String("audit", "", "stream admission decisions to this JSONL file")
	ckptPath := fs.String("checkpoint", "", "write the drain checkpoint to this file")
	resume := fs.Bool("resume", false, "replay the checkpoint or WAL at startup when one exists")
	durableDir := fs.String("durable", "", "write-ahead log directory: fsync every op before its response (crash-consistent mode)")
	walSegBytes := fs.Int64("wal-segment-bytes", 0, "WAL segment size before rotation (0 = default 4MiB)")
	spans := fs.Bool("spans", false, "trace every request through the serving pipeline: /debug/spans, per-stage /metrics histograms (analyze with servetrace)")
	spanBuffer := fs.Int("span-buffer", 0, "finished spans kept in the /debug/spans ring (0 = default 4096)")
	tenantLabels := fs.Int("tenant-labels", 0, "distinct tenants given their own /metrics series before folding into \"other\" (0 = default 32)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A drain context that has already expired lets Drain return before
	// the queue is decided and the checkpoint written.
	if *drainTimeout <= 0 {
		return fmt.Errorf("admissiond: bad -drain-timeout %v, want > 0", *drainTimeout)
	}

	cfg := serve.Config{
		Policy:          *policy,
		Nodes:           *nodes,
		Rating:          *rating,
		SigmaThreshold:  *sigma,
		TimeScale:       *timeScale,
		QueueDepth:      *queueDepth,
		RequestTimeout:  *reqTimeout,
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		CheckpointPath:  *ckptPath,
		Resume:          *resume,
		WALDir:          *durableDir,
		WALSegmentBytes: *walSegBytes,
		Spans:           *spans,
		SpanBuffer:      *spanBuffer,
		TenantLabels:    *tenantLabels,
		// Shed-ladder transitions are operator events: timestamped lines
		// on stderr, away from the machine-parsed stdout.
		ShedLog: os.Stderr,
	}
	var auditFile *os.File
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("admissiond: %w", err)
		}
		auditFile = f
		defer auditFile.Close()
		cfg.Audit = f
	}

	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if *durableDir != "" {
		// Machine-parsed by the crash-fuzz harness: keep its shape stable.
		recs, trunc := s.WALRecovery()
		fmt.Fprintf(stdout, "admissiond: recovered %d ops from WAL (%d bytes truncated)\n", recs, trunc)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = s.Close()
		return fmt.Errorf("admissiond: %w", err)
	}
	// The listening line is machine-parsed (serve-smoke, admitload
	// scripts): keep its shape stable.
	fmt.Fprintf(stdout, "admissiond: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		_ = s.Close()
		return fmt.Errorf("admissiond: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: finish queued admissions and checkpoint first (the
	// in-flight handlers are waiting on those decisions), then close the
	// HTTP side.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	shutErr := hs.Shutdown(dctx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("admissiond: %w", err)
	}
	if drainErr != nil {
		return drainErr
	}
	if shutErr != nil {
		return fmt.Errorf("admissiond: shutdown: %w", shutErr)
	}
	if auditFile != nil {
		if err := auditFile.Sync(); err != nil {
			return fmt.Errorf("admissiond: audit sync: %w", err)
		}
	}
	fmt.Fprintf(stdout, "admissiond: drained %d applied ops, exiting\n", s.OpsApplied())
	// The context cancellation is the normal exit path; MainServer maps
	// it to exit 0.
	return ctx.Err()
}
