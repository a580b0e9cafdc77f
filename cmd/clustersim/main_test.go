package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultScaledDown(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-nodes", "16", "-jobs", "150"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"policy", "librarisk", "deadlines fulfilled", "submitted              150"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEveryPolicyFlag(t *testing.T) {
	for _, pol := range []string{"edf", "libra", "librarisk", "fcfs", "backfill-easy", "backfill-conservative", "qops"} {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-policy", pol, "-nodes", "8", "-jobs", "60"}, &sb); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

func TestRunRejectsBadPolicy(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-policy", "lottery"}, &sb); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-no-such-flag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunRejectsFaultFlagWithoutItsMTBF pins that a flag shaping one
// fault class is refused, naming the flag it needs, when set explicitly
// while that class is off, and accepted once the class is on.
func TestRunRejectsFaultFlagWithoutItsMTBF(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		needs string // "" when the run must succeed
	}{
		{[]string{"-fault-straggler-factor", "NaN"}, "-fault-straggler-mtbf"},
		{[]string{"-fault-straggler-duration", "60"}, "-fault-straggler-mtbf"},
		{[]string{"-fault-mttr", "60"}, "-fault-mtbf or -fault-correlated-mtbf"},
		{[]string{"-fault-correlated-size", "3"}, "-fault-correlated-mtbf"},
		{[]string{"-fault-correlated-size", "3", "-fault-mtbf", "86400"}, "-fault-correlated-mtbf"},
		{[]string{"-fault-mttr", "60", "-fault-correlated-mtbf", "86400", "-fault-correlated-size", "3"}, ""},
		{[]string{"-fault-straggler-factor", "0.7", "-fault-straggler-mtbf", "86400"}, ""},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var sb strings.Builder
			err := run(context.Background(), append([]string{"-jobs", "50", "-nodes", "16"}, tc.args...), &sb)
			switch {
			case tc.needs == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.needs != "" && err == nil:
				t.Fatal("accepted a flag the run ignores")
			case tc.needs != "" && (!strings.Contains(err.Error(), tc.args[0]+" is set") || !strings.Contains(err.Error(), tc.needs)):
				t.Fatalf("error %q, want it to name %s and %s", err, tc.args[0], tc.needs)
			}
		})
	}
}

func TestRunReport(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-report", "-nodes", "8", "-jobs", "80"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "slowdown") || !strings.Contains(sb.String(), "class") {
		t.Fatalf("report output wrong:\n%s", sb.String())
	}
}

func TestRunJobsCSVAndMonitorCSV(t *testing.T) {
	dir := t.TempDir()
	jobsCSV := filepath.Join(dir, "jobs.csv")
	monCSV := filepath.Join(dir, "mon.csv")
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-nodes", "8", "-jobs", "60",
		"-jobs-csv", jobsCSV,
		"-monitor", "3600", "-monitor-csv", monCSV,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(jobsCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(jb), "job,outcome,") || strings.Count(string(jb), "\n") != 61 {
		t.Fatalf("jobs csv wrong (lines=%d)", strings.Count(string(jb), "\n"))
	}
	mb, err := os.ReadFile(monCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(mb), "time,utilization,") {
		t.Fatalf("monitor csv wrong:\n%s", string(mb)[:80])
	}
}

func TestRunTraceReplay(t *testing.T) {
	// Build a small trace with tracegen's library path, then replay it.
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.swf")
	var gen strings.Builder
	if err := run(context.Background(), []string{"-nodes", "8", "-jobs", "50"}, &gen); err != nil {
		t.Fatal(err)
	}
	// Use the public API via the facade through a fresh trace file: easiest
	// is to reuse -trace after writing with tracegen logic; emulate by
	// writing a minimal SWF here.
	content := "; MaxNodes: 8\n"
	for i := 1; i <= 20; i++ {
		content += strings.ReplaceAll("ID 0 -1 600 2 -1 -1 2 1200 -1 1 1 1 -1 1 -1 -1 -1\n", "ID 0",
			// job id and staggered submit times
			itoa(i)+" "+itoa(i*500))
	}
	if err := os.WriteFile(tracePath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-nodes", "8", "-trace", tracePath, "-last", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "submitted              10") {
		t.Fatalf("trace replay output:\n%s", sb.String())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestRunMissingTraceFile(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-trace", "/nonexistent/file.swf"}, &sb); err == nil {
		t.Fatal("missing trace accepted")
	}
}
