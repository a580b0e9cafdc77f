package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
)

// spec freezes one workload. Sizes are op counts, never durations: a run
// with the same --seconds does the same work on every commit, so two
// commits compare identical work and peak memory is comparable.
type spec struct {
	Name string
	// Batch selects the figure-regeneration workload; the others drive
	// admissiond over loopback.
	Batch bool

	// Cluster shape and load of the request stream. Estimate inaccuracy
	// is always 100 % (the trace's own estimates): the paper's subject.
	Nodes    int
	MaxProcs int
	ADF      float64
	Durable  bool

	// Preload is W: the ops a cold cycle pushes over the wire before the
	// daemon counts as set up, and the state recovery replays.
	Preload int
	// SegOps is the size of one timed segment; SegsPerSecond scales the
	// segment count with --seconds (24 at the frozen run_seconds, fewer
	// where a segment takes most of a second).
	SegOps        int
	SegsPerSecond float64
	// TraceOps is how many ops of the stream the -trace ladder replays.
	TraceOps int
	// ExpJobs sizes the figure-4 sweep behind the experiment.* layer
	// metrics (paper scale on the batch workload).
	ExpJobs int

	// AcceptedPct is the accepted share of the timed ops, frozen at the
	// centre of seeds 1-12; every run must land within AcceptedTol points
	// of it. The band covers the seed-to-seed range (±0.5 points on
	// serve_wire, ±1.8 on the others) with margin, and still catches a
	// policy that starts deciding differently.
	AcceptedPct float64
	AcceptedTol float64
}

// Jobs and nodes of the batch workload: the paper's scale.
const (
	batchJobs        = 3000
	batchCellsPerRun = 168 // figures 1-4: 60 + 36 + 36 + 36 sweep cells
	// batchRoundsPerSecond scales rounds with --seconds: 3 at run_seconds.
	batchRoundsPerSecond = 0.3
	// figuresSHA256 is the digest of the four rendered figures at seed 1.
	figuresSHA256 = "e963388c04d6ae3f89f3c548c4a64a0bf1c72166d42efde81ed8de9a15729398"
)

var specs = []spec{
	{
		Name: "serve_wire", Nodes: 16, MaxProcs: 4, ADF: 0.5,
		Preload: 20000, SegOps: 4000, SegsPerSecond: 2.4, TraceOps: 5000, ExpJobs: 600,
		AcceptedPct: 82.3, AcceptedTol: 1.5,
	},
	{
		Name: "serve_scan", Nodes: 512, MaxProcs: 128, ADF: 0.02,
		Preload: 1500, SegOps: 1000, SegsPerSecond: 1.6, TraceOps: 2000, ExpJobs: 300,
		AcceptedPct: 45.4, AcceptedTol: 3,
	},
	{
		Name: "serve_durable", Nodes: 128, MaxProcs: 16, ADF: 0.05, Durable: true,
		Preload: 5000, SegOps: 1000, SegsPerSecond: 2.0, TraceOps: 4000, ExpJobs: 600,
		AcceptedPct: 45.5, AcceptedTol: 3,
	},
	{
		Name: "batch_figures", Batch: true, Nodes: 128, MaxProcs: 128, ADF: 0.5,
		TraceOps: 3000, ExpJobs: batchJobs,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// timedSegments is how many segments the timed phase measures at the
// given --seconds, not counting the discarded warm-up segment.
func (s spec) timedSegments(seconds int) int {
	n := int(math.Round(float64(seconds) * s.SegsPerSecond))
	if n < 4 {
		n = 4
	}
	return n
}

// batchRounds is how many times the batch workload rebuilds the figures.
func batchRounds(seconds int) int {
	n := int(math.Round(float64(seconds) * batchRoundsPerSecond))
	if n < 2 {
		n = 2
	}
	return n
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadBenchmarkFile parses and validates BENCHMARK.json against the
// limits its consumers enforce and against this harness: every declared
// workload must exist here and every metric name must be printable.
func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		return bf, fmt.Errorf("%s: run_seconds %d outside 1..60", path, bf.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s: name %q does not match %s", path, n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("%s: name %q used twice", path, n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range bf.Workloads {
		if err := name(w.Name); err != nil {
			return bf, err
		}
		if _, ok := findSpec(w.Name); !ok {
			return bf, fmt.Errorf("%s: workload %q is not defined by the harness", path, w.Name)
		}
	}
	hasSetup := false
	for i, list := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, m := range list {
			if err := name(m.Name); err != nil {
				return bf, err
			}
			if !unitRE.MatchString(m.Unit) {
				return bf, fmt.Errorf("%s: metric %q has unit %q", path, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return bf, fmt.Errorf("%s: metric %q has better=%q", path, m.Name, m.Better)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				return bf, fmt.Errorf("%s: metric %q has bound %g outside (0, 0.25]", path, m.Name, m.Bound)
			}
			if m.Name == "setup_s" && i == 0 && m.Unit == "s" && m.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		return bf, fmt.Errorf("%s: end_to_end lacks setup_s (s, lower)", path)
	}
	return bf, nil
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json: the checkout root the harness builds from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}
