package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonArgs parameterises one admissiond boot.
type daemonArgs struct {
	walDir   string
	audit    string
	policy   string
	nodes    int
	segBytes int64
}

// daemon is one live admissiond process with its stdout under watch.
type daemon struct {
	cmd       *exec.Cmd
	stderr    bytes.Buffer
	base      string // http://host:port once the listening line appears
	recovered int    // ops replayed from the WAL at boot
	truncated int64  // torn-tail bytes discarded at boot

	mu       sync.Mutex
	lines    []string
	scanDone chan struct{}
	waitOnce sync.Once
	waitErr  error
}

// startDaemon boots admissiond in durable mode and blocks until it
// reports its listen address (or fails to).
func startDaemon(ctx context.Context, bin string, a daemonArgs) (*daemon, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-time-scale", "0", // request-driven clock: the workload's virtual times rule
		"-durable", a.walDir,
		"-resume",
		"-audit", a.audit,
		"-policy", a.policy,
		"-nodes", strconv.Itoa(a.nodes),
		"-queue-depth", "512",
		"-request-timeout", "30s",
	}
	if a.segBytes > 0 {
		args = append(args, "-wal-segment-bytes", strconv.FormatInt(a.segBytes, 10))
	}
	cmd := exec.Command(bin, args...)
	d := &daemon{cmd: cmd, scanDone: make(chan struct{})}
	cmd.Stderr = &d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	listening := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			var n int
			var tr int64
			if _, err := fmt.Sscanf(line, "admissiond: recovered %d ops from WAL (%d bytes truncated)", &n, &tr); err == nil {
				d.recovered, d.truncated = n, tr
			}
			if addr, ok := strings.CutPrefix(line, "admissiond: listening on "); ok {
				select {
				case listening <- addr:
				default:
				}
			}
		}
	}()

	select {
	case addr := <-listening:
		d.base = addr
		return d, nil
	case <-d.scanDone:
		err := d.wait()
		return nil, fmt.Errorf("daemon exited before listening: %v\nstdout: %s\nstderr: %s",
			err, strings.Join(d.lines, "\n"), d.stderr.String())
	case <-time.After(15 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not report listening within 15s; stderr: %s", d.stderr.String())
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// wait reaps the process exactly once, after the stdout scanner has
// drained (so no trailing lines are lost to Wait closing the pipe).
func (d *daemon) wait() error {
	d.waitOnce.Do(func() {
		<-d.scanDone
		d.waitErr = d.cmd.Wait()
	})
	return d.waitErr
}

// kill delivers SIGKILL — the crash under test. No cleanup runs in the
// daemon; whatever hit the disk is what recovery gets.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.wait()
}

// terminate delivers SIGTERM and requires a clean drain: exit status 0
// and the "drained" line on stdout.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero on SIGTERM: %v; stderr: %s", err, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon failed to drain within 30s")
	}
	if !d.sawLine("admissiond: drained ") {
		return fmt.Errorf("daemon exited 0 but never printed the drained line; stdout: %s", strings.Join(d.lines, "\n"))
	}
	return nil
}

func (d *daemon) sawLine(prefix string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

// loadProc wraps one admitload run.
type loadProc struct {
	bin  string
	args []string
	cmd  *exec.Cmd
	out  bytes.Buffer
}

func (l *loadProc) start() error {
	l.cmd = exec.Command(l.bin, l.args...)
	l.cmd.Stdout = &l.out
	l.cmd.Stderr = &l.out
	return l.cmd.Start()
}

func (l *loadProc) wait() error {
	if err := l.cmd.Wait(); err != nil {
		return fmt.Errorf("%w; output: %s", err, l.out.String())
	}
	return nil
}
