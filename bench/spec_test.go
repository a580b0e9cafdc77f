package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	plain := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(bf.Workloads) != len(specs) {
		t.Errorf("%d workloads declared, harness defines %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		if !plain.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricDecl{}, bf.EndToEnd...), bf.PerLayer...) {
		if !plain.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if len(bf.EndToEnd) != 7 {
		t.Errorf("%d end-to-end metrics, want 7", len(bf.EndToEnd))
	}
	for _, p := range bf.Paths {
		if p != "bench" {
			t.Errorf("path %q: the benchmark lives in bench alone", p)
		}
	}
}

func TestBenchmarkFileRejectsBadDeclarations(t *testing.T) {
	good := `{"command":["x"],"paths":["bench"],"run_seconds":10,
	 "workloads":[{"name":"serve_wire","why":"w"}],
	 "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.1}],
	 "per_layer":[{"name":"core.submit_us","unit":"us","better":"lower"}]}`
	for name, edit := range map[string]func(string) string{
		"":                     func(s string) string { return s },
		"space in name":        func(s string) string { return strings.Replace(s, "core.submit_us", "core submit", 1) },
		"unknown workload":     func(s string) string { return strings.Replace(s, "serve_wire", "serve_nothing", 1) },
		"duplicate name":       func(s string) string { return strings.Replace(s, "core.submit_us", "setup_s", 1) },
		"bound too wide":       func(s string) string { return strings.Replace(s, "0.1", "0.3", 1) },
		"no setup_s":           func(s string) string { return strings.Replace(s, "setup_s", "boot_s", 1) },
		"bad direction":        func(s string) string { return strings.Replace(s, `"lower"}]}`, `"down"}]}`, 1) },
		"run_seconds too long": func(s string) string { return strings.Replace(s, `"run_seconds":10`, `"run_seconds":61`, 1) },
	} {
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(edit(good)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadBenchmarkFile(path)
		if (err == nil) != (name == "") {
			t.Errorf("%q: err = %v", name, err)
		}
	}
}

func TestSegmentCountsScaleWithSeconds(t *testing.T) {
	wire, _ := findSpec("serve_wire")
	if got := wire.timedSegments(10); got != 24 {
		t.Errorf("serve_wire at 10 s: %d segments, want 24", got)
	}
	if got := wire.timedSegments(1); got != 4 {
		t.Errorf("serve_wire at 1 s: %d segments, want the floor of 4", got)
	}
	if got := batchRounds(10); got != 3 {
		t.Errorf("batch at 10 s: %d rounds, want 3", got)
	}
}
