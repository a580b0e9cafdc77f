package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The boot/kill/terminate pattern follows cmd/crashfuzz/proc.go, copied
// rather than imported: that file belongs to a main package.

// daemonArgs parameterises one admissiond boot.
type daemonArgs struct {
	nodes      int
	walDir     string // durable mode when set
	checkpoint string // drain checkpoint otherwise
	resume     bool
	spans      bool
}

// daemon is one live admissiond process with its stdout under watch.
type daemon struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string // http://host:port once the listening line appears

	mu       sync.Mutex
	lines    []string
	scanDone chan struct{}
	waitOnce sync.Once
	waitErr  error
}

// procs records every daemon the harness started, so each exit path can
// reap whatever is still running. Killing a daemon that already exited
// and was waited for is a no-op, so nothing is ever taken off the list.
type procs struct {
	mu      sync.Mutex
	started []*daemon
}

// killAll is safe to call more than once and from the signal handler.
func (p *procs) killAll() {
	p.mu.Lock()
	ds := p.started
	p.started = nil
	p.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// startDaemon boots admissiond with the benchmark's fixed serving
// flags and blocks until it reports its listen address. The returned
// duration is spawn → listening: with resume set, the recovery time.
func (p *procs) startDaemon(bin string, a daemonArgs) (*daemon, time.Duration, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-policy", "librarisk",
		"-nodes", strconv.Itoa(a.nodes),
		"-time-scale", "0", // request-driven clock: the stream's virtual times rule
		"-queue-depth", "1024",
		"-request-timeout", "30s",
	}
	if a.walDir != "" {
		args = append(args, "-durable", a.walDir)
	}
	if a.checkpoint != "" {
		args = append(args, "-checkpoint", a.checkpoint)
	}
	if a.resume {
		args = append(args, "-resume")
	}
	if a.spans {
		args = append(args, "-spans")
	}
	cmd := exec.Command(bin, args...)
	d := &daemon{cmd: cmd, scanDone: make(chan struct{})}
	cmd.Stderr = &d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p.mu.Lock()
	p.started = append(p.started, d)
	p.mu.Unlock()

	type ready struct {
		addr string
		at   time.Time
	}
	listening := make(chan ready, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			at := time.Now()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "admissiond: listening on "); ok {
				select {
				case listening <- ready{addr, at}:
				default:
				}
			}
		}
	}()

	select {
	case r := <-listening:
		d.base = r.addr
		return d, r.at.Sub(t0), nil
	case <-d.scanDone:
		err := d.wait()
		return nil, 0, fmt.Errorf("daemon exited before listening: %v\nstdout: %s\nstderr: %s",
			err, strings.Join(d.lines, "\n"), d.stderr.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("daemon did not report listening within 60s; stderr: %s", d.stderr.String())
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

// kill delivers SIGKILL, the crash under test on the durable workload,
// and reaps the process.
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
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("daemon failed to drain within 60s")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.lines {
		if strings.HasPrefix(l, "admissiond: drained ") {
			return nil
		}
	}
	return fmt.Errorf("daemon exited 0 but never printed the drained line; stdout: %s", strings.Join(d.lines, "\n"))
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux platform Go supports.
const clockTicksPerSecond = 100

// parseStatCPU extracts utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(ut+st) / clockTicksPerSecond, nil
}

// parseStatusHWM extracts VmHWM (peak resident set) in MB from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuSeconds reads utime+stime of pid ("self" for the harness itself).
func cpuSeconds(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// peakRSSMB reads VmHWM of pid ("self" for the harness itself).
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(raw))
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }
