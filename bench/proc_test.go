package main

import (
	"math"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (adm (x) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 75 0 0 20 0 5 0 100 1000000 250 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu = %g s, want %g", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
	if _, err := cpuSeconds("self"); err != nil {
		t.Errorf("reading our own stat: %v", err)
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tadmissiond\nVmPeak:\t  999999 kB\nVmHWM:\t   83968 kB\nVmRSS:\t   70000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 82 {
		t.Errorf("VmHWM = %g MB, want 82", got)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("a status without VmHWM parsed")
	}
	if _, err := parseStatusHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("a VmHWM in another unit parsed")
	}
}

func TestFSTypeLongestMountWins(t *testing.T) {
	mounts := "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\n/dev/vdb /tmp/data xfs rw 0 0\n"
	for dir, want := range map[string]string{
		"/root/repo/bench/out": "ext4",
		"/tmp/x":               "tmpfs",
		"/tmp/data/wal":        "xfs",
		"/tmp/database":        "tmpfs",
	} {
		if got := fsTypeFrom(mounts, dir); got != want {
			t.Errorf("fsTypeFrom(%s) = %s, want %s", dir, got, want)
		}
	}
}
