package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersched/internal/workload"
)

// FuzzValidateAdmit guards the one boundary every job crosses on its way
// into the engine: whatever /admit body decodes and passes validateAdmit
// must be a job the simulator accepts, carrying only finite positive
// quantities — a NaN, an infinity or a negative reaching the cluster
// would poison virtual time for every later request.
func FuzzValidateAdmit(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"t0","numproc":4,"runtime":100,"deadline":120}`,
		`{"numproc":1,"runtime":30,"estimate":45,"deadline":40,"class":"sheddable","t":15}`,
		`{"numproc":1,"runtime":NaN,"deadline":40}`,
		`{"numproc":1,"runtime":30,"deadline":Infinity}`,
		`{"numproc":1,"runtime":30,"deadline":-Infinity}`,
		`{"numproc":1,"runtime":1e999,"deadline":40}`,
		`{"numproc":1,"runtime":1.7976931348623157e308,"estimate":1.7976931348623157e308,"deadline":1.7976931348623157e308,"t":1.7976931348623157e308}`,
		`{"numproc":1,"runtime":5e-324,"deadline":5e-324}`,
		`{"numproc":1,"runtime":-30,"deadline":40}`,
		`{"numproc":1,"runtime":30,"estimate":-1,"deadline":40}`,
		`{"numproc":1,"runtime":30,"deadline":-40}`,
		`{"numproc":1,"runtime":30,"deadline":0}`,
		`{"numproc":1,"runtime":30,"deadline":40,"t":-1}`,
		`{"numproc":1,"runtime":30,"deadline":40,"t":-0.0}`,
		`{"numproc":1,"runtime":30,"deadline":40,"t":null}`,
		`{"numproc":0,"runtime":30,"deadline":40}`,
		`{"numproc":-3,"runtime":30,"deadline":40}`,
		`{"numproc":9223372036854775807,"runtime":30,"deadline":40}`,
		`{"numproc":9223372036854775808,"runtime":30,"deadline":40}`,
		`{"numproc":1.5,"runtime":30,"deadline":40}`,
		`{"numproc":1,"runtime":30,"deadline":40,"class":"urgent"}`,
		`{"numproc":1,"runtime":"30","deadline":40}`,
		`{"tenant":"` + strings.Repeat("x", 1<<12) + `","numproc":1,"runtime":30,"deadline":40}`,
		`{"numproc":1,"runtime":30,"deadline":40}{"numproc":-1}`,
		`[]`, `null`, `{}`, ``, `{"numproc":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req AdmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return // handleAdmit answers 400 before validating
		}
		op, hasT, reqT, err := validateAdmit(&req)
		if err != nil {
			return // rejected input is fine; panics and bad accepts are not
		}
		if !hasT && reqT != 0 {
			t.Fatalf("no submit time requested but reqT = %g", reqT)
		}
		for name, v := range map[string]float64{"runtime": op.Runtime, "estimate": op.Estimate, "deadline": op.Deadline} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("accepted %s = %g from %q", name, v, body)
			}
		}
		if math.IsNaN(reqT) || math.IsInf(reqT, 0) || reqT < 0 {
			t.Fatalf("accepted t = %g from %q", reqT, body)
		}
		if op.NumProc <= 0 {
			t.Fatalf("accepted numproc = %d from %q", op.NumProc, body)
		}
		// The job applyLocked will submit for this op.
		job := workload.Job{
			ID:            1,
			Submit:        reqT,
			Runtime:       op.Runtime,
			TraceEstimate: op.Estimate,
			NumProc:       op.NumProc,
			Deadline:      op.Deadline,
			Class:         workload.Class(op.Class),
		}
		if err := job.Validate(); err != nil {
			t.Fatalf("validateAdmit accepted %q but the simulator refuses it: %v", body, err)
		}
		if job.Class != workload.HighUrgency && job.Class != workload.LowUrgency {
			t.Fatalf("accepted class %d from %q", op.Class, body)
		}
	})
}

// FuzzReplayCheckpoint feeds the drain-checkpoint reader a file with a
// correct checksum built from fuzzed op fields — a valid admit, then the
// fuzzed op — and then the same file with one byte flipped after the
// checksum was taken (flipXor 0 skips the flip). kind picks the op kind:
// admit, node, or one no handler produces. Resuming must never
// panic. It may refuse either file; when it accepts the flipped one, it
// must replay to the same op count and audit bytes as the unflipped one.
func FuzzReplayCheckpoint(f *testing.F) {
	f.Add(byte(0), 2, 60.0, 60.0, 100.0, 0, 0, false, 10.0, 2, uint16(0), byte(0))
	f.Add(byte(0), 2, 60.0, 60.0, 100.0, 1, 0, false, 10.0, 2, uint16(40), byte(1))
	f.Add(byte(0), 9, 60.0, 30.0, 100.0, 0, 0, false, 10.0, 2, uint16(0), byte(0))
	f.Add(byte(0), 1, -60.0, 60.0, 100.0, 0, 0, false, 10.0, 2, uint16(0), byte(0))
	f.Add(byte(0), 1, 60.0, 60.0, 100.0, 7, 0, false, 10.0, 2, uint16(0), byte(0))
	f.Add(byte(0), 1, 1.7976931348623157e308, 1.7976931348623157e308, 1.7976931348623157e308, 0, 0, false, 1.7976931348623157e308, 2, uint16(0), byte(0))
	f.Add(byte(1), 0, 0.0, 0.0, 0.0, 0, 1, true, 5.0, 2, uint16(0), byte(0))
	f.Add(byte(1), 0, 0.0, 0.0, 0.0, 0, 9, true, 5.0, 2, uint16(0), byte(0))
	f.Add(byte(1), 0, 0.0, 0.0, 0.0, 0, -1, false, 5.0, 2, uint16(0), byte(0))
	f.Add(byte(1), 0, 0.0, 0.0, 0.0, 0, 0, true, -5.0, 2, uint16(0), byte(0))
	f.Add(byte(1), 0, 0.0, 0.0, 0.0, 0, 0, true, 5.0, 1, uint16(0), byte(0))
	f.Add(byte(1), 0, 0.0, 0.0, 0.0, 0, 0, true, 5.0, 2, uint16(7), byte(' '))
	f.Add(byte(2), 0, 0.0, 0.0, 0.0, 0, 0, false, 5.0, 2, uint16(0), byte(0))
	f.Fuzz(func(t *testing.T, kind byte, numProc int, runtime, estimate, deadline float64, class, node int, down bool, opT float64, seq int, flipAt uint16, flipXor byte) {
		cfg := testConfig()
		ops := []Op{validAdmit(1, 0), {
			Seq: seq, Kind: [...]string{"", "node", "reboot"}[kind%3], T: opT, NumProc: numProc, Runtime: runtime, Estimate: estimate,
			Deadline: deadline, Class: class, Audited: true, Node: node, Down: down,
		}}
		data, err := checkpointBytes(cfg, ops)
		if err != nil {
			return // NaN and ±Inf have no JSON form, so no checkpoint holds them
		}
		dir := t.TempDir()
		resume := func(data []byte) (int, []byte, error) {
			path := filepath.Join(dir, "c.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var audit bytes.Buffer
			rcfg := cfg
			rcfg.CheckpointPath, rcfg.Resume, rcfg.Audit = path, true, &audit
			s, err := New(rcfg)
			if err != nil {
				return 0, nil, err
			}
			n := s.OpsApplied()
			if err := s.Close(); err != nil {
				t.Fatalf("close after resume: %v", err)
			}
			return n, audit.Bytes(), nil
		}
		wantOps, wantAudit, wantErr := resume(data)
		if flipXor == 0 {
			return
		}
		data[int(flipAt)%len(data)] ^= flipXor
		gotOps, gotAudit, err := resume(data)
		if err != nil {
			return
		}
		if wantErr != nil {
			t.Fatalf("flipped checkpoint resumed, the unflipped one was refused: %v", wantErr)
		}
		if gotOps != wantOps || !bytes.Equal(gotAudit, wantAudit) {
			t.Fatalf("flipped checkpoint replayed %d ops, unflipped %d; audit equal: %v", gotOps, wantOps, bytes.Equal(gotAudit, wantAudit))
		}
	})
}
