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
	for _, pol := range []string{"edf", "libra", "librarisk", "fcfs", "backfill-easy", "backfill-conservative", "backfill-edf", "qops"} {
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

// writeTrace writes a 20-job SWF trace for an 8-node cluster and returns
// its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	content := "; MaxNodes: 8\n"
	for i := 1; i <= 20; i++ {
		content += strings.ReplaceAll("ID 0 -1 600 2 -1 -1 2 1200 -1 1 1 1 -1 1 -1 -1 -1\n", "ID 0",
			// job id and staggered submit times
			itoa(i)+" "+itoa(i*500))
	}
	path := filepath.Join(t.TempDir(), "t.swf")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTraceReplay(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-nodes", "8", "-trace", writeTrace(t), "-last", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "submitted              10") {
		t.Fatalf("trace replay output:\n%s", sb.String())
	}
}

// TestRunRefusesFlagsItsRunWouldDrop pins that a flag combination whose
// run would ignore one of its flags is refused, naming both flags, and
// that each flag is accepted where its run uses it.
func TestRunRefusesFlagsItsRunWouldDrop(t *testing.T) {
	trace := writeTrace(t)
	out := func(name string) string { return filepath.Join(t.TempDir(), name) }
	for _, tc := range []struct {
		name  string
		args  []string
		names []string // flags the error must name; none when the run must succeed
	}{
		{"report with trace", []string{"-report", "-trace", trace}, []string{"-report", "-trace"}},
		{"report with jobs-csv", []string{"-report", "-jobs-csv", out("jobs.csv")}, []string{"-report", "-jobs-csv"}},
		{"report with monitor-csv", []string{"-report", "-monitor", "3600", "-monitor-csv", out("mon.csv")}, []string{"-report", "-monitor-csv"}},
		{"last without trace", []string{"-last", "10"}, []string{"-last", "-trace"}},
		{"monitor-csv without monitor", []string{"-monitor-csv", out("mon.csv")}, []string{"-monitor-csv", "-monitor"}},
		{"monitor-csv with monitor 0", []string{"-monitor", "0", "-monitor-csv", out("mon.csv")}, []string{"-monitor-csv", "-monitor"}},
		{"trace with last and jobs-csv", []string{"-trace", trace, "-last", "10", "-jobs-csv", out("jobs.csv")}, nil},
		{"monitor-csv with monitor", []string{"-monitor", "3600", "-monitor-csv", out("mon.csv")}, nil},
		{"report with monitor", []string{"-report", "-monitor", "3600"}, nil},
		{"monitor with edf", []string{"-policy", "edf", "-monitor", "3600", "-monitor-csv", out("mon.csv")}, []string{"-monitor", "-policy edf"}},
		{"monitor with backfill-easy", []string{"-policy", "backfill-easy", "-monitor", "3600"}, []string{"-monitor", "-policy backfill-easy"}},
		{"monitor with libra", []string{"-policy", "libra", "-monitor", "3600", "-monitor-csv", out("mon.csv")}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(context.Background(), append([]string{"-jobs", "50", "-nodes", "8"}, tc.args...), &sb)
			switch {
			case tc.names == nil && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.names != nil && err == nil:
				t.Fatalf("accepted a combination whose run ignores a flag; output:\n%s", sb.String())
			}
			for _, name := range tc.names {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q, want it to name %s", err, name)
				}
			}
		})
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
