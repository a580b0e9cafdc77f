package serve

import (
	"bytes"
	"encoding/json"
	"math"
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
		// The job applyAdmitLocked will build from this op.
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
