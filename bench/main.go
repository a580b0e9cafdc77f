// Command bench is the repository benchmark: it generates a workload
// from a seed, drives the real admissiond binary (or the public facade,
// for the batch workload), checks the outputs and prints every metric by
// name with its unit. See README.md in this directory.
//
//	go -C bench run . -workload serve_wire -seed 1
//	go -C bench run . -workload serve_scan -trace 1
//	go -C bench run . -aa
//	go -C bench run . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metric is one reported number. Timing metrics are medians and carry
// their quartiles and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Of    string  `json:"of,omitempty"` // what the samples are
}

// provenance is the host and build a result was measured on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	FSType     string `json:"fs_type"` // of the directory holding WAL and checkpoints
	Commit     string `json:"git_commit"`
}

// bench is one invocation's state: inputs, collected metrics and the
// processes and directories it must clean up.
type bench struct {
	root       string
	admissiond string
	tmp        string
	procs      procs

	workload string
	seed     uint64
	seconds  int
	trace    bool

	sent, failed int
	acceptedPct  float64
	metrics      []metric
	notes        []string // correctness failures
}

func (b *bench) put(name, unit string, q quartiles, of string) {
	b.metrics = append(b.metrics, metric{Name: name, Value: q.Median, Unit: unit, Q1: q.Q1, Q3: q.Q3, N: q.N, Of: of})
}

func (b *bench) putValue(name, unit string, v float64, of string) {
	b.metrics = append(b.metrics, metric{Name: name, Value: v, Unit: unit, Of: of})
}

func (b *bench) fail(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// fullResult is written to bench/out/<workload>[.trace].result.json.
type fullResult struct {
	Workload    string     `json:"workload"`
	Seed        uint64     `json:"seed"`
	Seconds     int        `json:"seconds"`
	Trace       bool       `json:"trace"`
	Correct     bool       `json:"correct"`
	OpsSent     int        `json:"ops_sent"`
	OpsOK       int        `json:"ops_ok"`
	OpsFailed   int        `json:"ops_failed"`
	AcceptedPct float64    `json:"accepted_pct"`
	Failures    []string   `json:"failures,omitempty"`
	Metrics     []metric   `json:"metrics"`
	Host        provenance `json:"host"`
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "nominal length of the timed phase; selects a fixed op count (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = the traced run that prints the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice and compare each metric's difference with its bound")
	selfcheck := flag.Bool("selfcheck", false, "harness validity: a 1 ms delay injected at fsync must move the handler p50 by 1 ms")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bf, err := loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}

	b := &bench{root: root, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0}
	// Every exit path, including a signal, reaps the daemons and removes
	// the state directories.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sigs
		b.cleanup()
		os.Exit(130)
	}()
	defer b.cleanup()

	if err := b.prepare(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *selfcheck:
		err = b.selfcheck()
	case *aa:
		err = b.runAA(bf)
	default:
		s, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", *workload, workloadNames())
			return 2
		}
		err = b.runOne(s)
		if err == nil {
			err = b.report(bf)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, " | ")
}

// prepare creates the invocation's scratch directory under bench/out and
// builds admissiond once, before any metric is timed.
func (b *bench) prepare() error {
	out := filepath.Join(b.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	b.tmp = tmp
	b.admissiond = filepath.Join(b.root, ".bench_build", "admissiond")
	cmd := exec.Command("go", "build", "-o", b.admissiond, "./cmd/admissiond")
	cmd.Dir = b.root
	if raw, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building admissiond: %v\n%s", err, raw)
	}
	return nil
}

func (b *bench) cleanup() {
	b.procs.killAll()
	if b.tmp != "" {
		_ = os.RemoveAll(b.tmp)
	}
}

// runOne runs one workload: the end-to-end measurement, or with -trace
// the separate traced run that yields the per-layer metrics.
func (b *bench) runOne(s spec) error {
	switch {
	case b.trace:
		return b.runLayers(s)
	case s.Batch:
		return b.runBatch(s)
	default:
		return b.runServe(s)
	}
}

// report prints the metrics, writes the full result JSON and ends with
// the one-line result object.
func (b *bench) report(bf benchmarkFile) error {
	declared := bf.EndToEnd
	if b.trace {
		declared = bf.PerLayer
	}
	byName := map[string]metric{}
	for _, m := range b.metrics {
		byName[m.Name] = m
	}
	last := contractResult{Attempted: b.sent, Failed: b.failed, Metrics: map[string]contractValue{}}
	for _, d := range declared {
		m, ok := byName[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		last.Metrics[d.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	last.Correct = len(b.notes) == 0 && b.failed == 0

	host := b.provenance()
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", b.workload, b.seed, b.seconds, b.trace)
	for _, m := range b.metrics {
		if m.N > 0 {
			fmt.Printf("  %-28s %14.4f %-6s q1 %.4f  q3 %.4f  n %d (%s)\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N, m.Of)
		} else {
			fmt.Printf("  %-28s %14.4f %-6s (%s)\n", m.Name, m.Value, m.Unit, m.Of)
		}
	}
	fmt.Printf("  ops_sent %d  ops_ok %d  ops_failed %d", b.sent, b.sent-b.failed, b.failed)
	if b.acceptedPct > 0 { // the batch workload admits nothing over the wire
		fmt.Printf("  accepted_pct %.2f", b.acceptedPct)
	}
	fmt.Println()
	for _, n := range b.notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
	fmt.Printf("  host: nproc %d  GOMAXPROCS %d  %s  kernel %s  fs %s  commit %s\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.Kernel, host.FSType, host.Commit)

	full := fullResult{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.trace,
		Correct: last.Correct, OpsSent: b.sent, OpsOK: b.sent - b.failed, OpsFailed: b.failed,
		AcceptedPct: b.acceptedPct, Failures: b.notes, Metrics: b.metrics, Host: host,
	}
	name := b.workload + ".result.json"
	if b.trace {
		name = b.workload + ".trace.result.json"
	}
	raw, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.root, "bench", "out", name), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (b *bench) provenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		FSType:     fsType(b.tmp),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(raw))
	}
	// A benchmark checkout need not be a git repository.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = b.root
	if raw, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(raw))
	}
	return p
}

// fsType names the filesystem holding dir: the mount in /proc/mounts
// with the longest mount point that prefixes it.
func fsType(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	return fsTypeFrom(string(raw), dir)
}

func fsTypeFrom(mounts, dir string) string {
	best, typ := "", "unknown"
	for _, line := range strings.Split(mounts, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if mp != "/" && dir != mp && !strings.HasPrefix(dir, mp+"/") {
			continue
		}
		if len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
