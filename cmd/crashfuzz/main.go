// Command crashfuzz is a SIGKILL crash-fuzz harness for admissiond's
// durable mode: it boots the real daemon with a write-ahead log, floods
// it through the real admitload binary, kills the daemon with SIGKILL
// at a seeded random moment, restarts it with -resume, and asserts the
// recovery invariants — then repeats for N cycles and finishes with one
// graceful SIGTERM cycle.
//
// Invariants checked after every recovery:
//
//  1. No acknowledged admission is lost: the recovered daemon's
//     ops_applied is at least the highest job sequence any client got a
//     200 for.
//  2. No sequence is reused (no double-admits): every ack in a later
//     cycle carries a sequence strictly greater than every ack before
//     the kill.
//  3. The audit stream is prefix-consistent: the pre-crash audit file,
//     with at most one torn final line trimmed, is a byte prefix of the
//     audit stream the recovered daemon regenerates during replay.
//  4. The serve_wal_* metric family is live on /metrics.
//
// Example (the Makefile's crash-smoke target):
//
//	crashfuzz -admissiond ./admissiond -admitload ./admitload -cycles 5 -seed 7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"clustersched/internal/cli"
)

func main() {
	cli.Main("crashfuzz", run)
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crashfuzz", flag.ContinueOnError)
	daemonBin := fs.String("admissiond", "admissiond", "path to the admissiond binary")
	loadBin := fs.String("admitload", "admitload", "path to the admitload binary")
	cycles := fs.Int("cycles", 5, "SIGKILL/recover cycles before the final graceful one")
	seed := fs.Int64("seed", 1, "seed for kill timing and per-cycle workloads")
	jobs := fs.Int("jobs", 3000, "jobs per cycle (large enough that the kill lands mid-flood)")
	nodes := fs.Int("nodes", 8, "daemon cluster size")
	policy := fs.String("policy", "librarisk", "admission policy under test")
	segBytes := fs.Int64("wal-segment-bytes", 16<<10, "small segments so rotation+compaction are exercised")
	dirFlag := fs.String("dir", "", "scratch directory (default: a temp dir, removed on success)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scratch := *dirFlag
	if scratch == "" {
		d, err := os.MkdirTemp("", "crashfuzz-*")
		if err != nil {
			return err
		}
		scratch = d
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "crashfuzz: scratch %s\n", scratch)
	walDir := filepath.Join(scratch, "wal")
	rng := rand.New(rand.NewSource(*seed))

	inv := newInvariants()
	var totalAcked, totalTrunc int
	for cycle := 0; cycle <= *cycles; cycle++ {
		auditPath := filepath.Join(scratch, fmt.Sprintf("audit-%d.jsonl", cycle))
		d, err := startDaemon(ctx, *daemonBin, daemonArgs{
			walDir: walDir, audit: auditPath,
			policy: *policy, nodes: *nodes, segBytes: *segBytes,
		})
		if err != nil {
			return fmt.Errorf("crashfuzz: cycle %d: %w", cycle, err)
		}
		if cycle > 0 {
			// Invariant 1: recovery must cover every acked op.
			applied, err := opsApplied(ctx, d.base)
			if err != nil {
				d.kill()
				return fmt.Errorf("crashfuzz: cycle %d: /state: %w", cycle, err)
			}
			if applied < inv.maxAcked {
				d.kill()
				return fmt.Errorf("crashfuzz: cycle %d: ACKED WORK LOST: ops_applied %d < max acked seq %d", cycle, applied, inv.maxAcked)
			}
			// Invariant 3: the regenerated audit extends the pre-crash one.
			bootAudit, err := os.ReadFile(auditPath)
			if err != nil {
				d.kill()
				return fmt.Errorf("crashfuzz: cycle %d: %w", cycle, err)
			}
			prev := trimTornLine(inv.prevAudit)
			if !isPrefix(prev, bootAudit) {
				d.kill()
				return fmt.Errorf("crashfuzz: cycle %d: AUDIT DIVERGED: pre-crash audit (%d bytes after torn-line trim) is not a prefix of the recovered stream (%d bytes)",
					cycle, len(prev), len(bootAudit))
			}
			// Invariant 4: durability telemetry is exported.
			if err := checkWALMetrics(ctx, d.base); err != nil {
				d.kill()
				return fmt.Errorf("crashfuzz: cycle %d: %w", cycle, err)
			}
			totalTrunc += int(d.truncated)
			fmt.Fprintf(stdout, "crashfuzz: cycle %d recovered %d ops (%d bytes truncated), audit prefix ok, max acked %d\n",
				cycle, d.recovered, d.truncated, inv.maxAcked)
		}

		ackPath := filepath.Join(scratch, fmt.Sprintf("acks-%d.jsonl", cycle))
		tOffset := float64(cycle) * 1e7
		load := startLoad(*loadBin, d.base, ackPath, *jobs, *seed+int64(cycle), tOffset)
		if err := load.start(); err != nil {
			d.kill()
			return fmt.Errorf("crashfuzz: cycle %d: admitload: %w", cycle, err)
		}

		if cycle < *cycles {
			// Crash cycle: SIGKILL mid-flood at a seeded moment.
			delay := 20*time.Millisecond + time.Duration(rng.Int63n(int64(480*time.Millisecond)))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				d.kill()
				return ctx.Err()
			}
			d.kill()
			if err := load.wait(); err != nil {
				return fmt.Errorf("crashfuzz: cycle %d: admitload exited non-zero after kill: %w", cycle, err)
			}
		} else {
			// Final graceful cycle: let the flood finish, then SIGTERM.
			if err := load.wait(); err != nil {
				d.kill()
				return fmt.Errorf("crashfuzz: cycle %d: admitload: %w", cycle, err)
			}
		}

		acks, err := parseAcks(ackPath)
		if err != nil {
			return fmt.Errorf("crashfuzz: cycle %d: %w", cycle, err)
		}
		// Invariant 2: fresh acks continue strictly past everything acked
		// before, and no sequence repeats.
		if err := inv.absorb(cycle, acks); err != nil {
			return fmt.Errorf("crashfuzz: %w", err)
		}
		totalAcked += len(acks)
		audit, err := os.ReadFile(auditPath)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("crashfuzz: cycle %d: %w", cycle, err)
		}
		inv.prevAudit = audit
		note := ""
		if cycle < *cycles && len(acks) < *jobs {
			note = ", kill landed mid-flood"
		}
		fmt.Fprintf(stdout, "crashfuzz: cycle %d acked %d/%d decisions (max seq %d%s)\n", cycle, len(acks), *jobs, inv.maxAcked, note)

		if cycle == *cycles {
			if err := d.terminate(); err != nil {
				return fmt.Errorf("crashfuzz: graceful drain: %w", err)
			}
			fmt.Fprintf(stdout, "crashfuzz: graceful drain clean\n")
		}
	}

	fmt.Fprintf(stdout, "crashfuzz: PASS: %d kill/recover cycles + 1 graceful, %d acks total, %d torn-tail bytes truncated, 0 acked ops lost\n",
		*cycles, totalAcked, totalTrunc)
	if *dirFlag == "" {
		os.RemoveAll(scratch)
	}
	return nil
}

// opsApplied reads ops_applied from /state.
func opsApplied(ctx context.Context, base string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/state", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		OpsApplied int    `json:"ops_applied"`
		Err        string `json:"err"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	if st.Err != "" {
		return 0, fmt.Errorf("daemon reports error: %s", st.Err)
	}
	return st.OpsApplied, nil
}

// checkWALMetrics asserts the serve_wal_* family is on /metrics.
func checkWALMetrics(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, want := range []string{
		"serve_wal_appends_total",
		"serve_wal_commits_total",
		"serve_wal_dirty_bytes",
		"serve_wal_fsync_seconds",
		"serve_wal_recovered_records",
		"serve_wal_recovery_truncated_bytes",
	} {
		if !containsLine(body, want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}
	return nil
}

func startLoad(bin, base, ackPath string, jobs int, seed int64, tOffset float64) *loadProc {
	return &loadProc{
		bin: bin,
		args: []string{
			"-url", base,
			"-jobs", strconv.Itoa(jobs),
			"-seed", strconv.FormatInt(seed, 10),
			"-virtual",
			"-t-offset", strconv.FormatFloat(tOffset, 'f', -1, 64),
			"-ack-log", ackPath,
			"-abort-after-errors", "5",
			"-concurrency", "4",
			"-tenants", "2",
			"-timeout", "5s",
		},
	}
}
