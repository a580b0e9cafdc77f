package clustersched

import (
	"runtime"
	"testing"
)

// heapSlopeBudget bounds how much the live heap of a serving daemon may
// grow between 5 000 and 20 000 admissions, in bytes per admission. A
// daemon that remembers every job grows by several hundred bytes per
// admission; one bounded by its running jobs grows by none, so the budget
// only absorbs runtime noise.
const heapSlopeBudget = 16

// TestServeHeapSlope holds the serving daemon's memory to its running
// jobs, not its history: the live heap after 20 000 admissions is no
// larger than after 5 000, give or take heapSlopeBudget per admission.
// Both runs use the ServeAdmit op (request-driven time, one job a second
// with a 30 s runtime, so about 30 run at once), with no persistence, with
// a write-ahead log and with the op journal a drain checkpoints.
func TestServeHeapSlope(t *testing.T) {
	for _, tc := range []struct {
		name    string
		persist persistence
	}{
		{"memory", inMemory},
		{"durable", durableWAL},
		{"checkpoint", drainCheckpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := serveAdmitOp(tc.persist, false)(t)
			admits := 300 // serveAdmitOp warms up with 300 admissions
			heapAt := func(n int) uint64 {
				for ; admits < n; admits++ {
					op()
				}
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			at5k := heapAt(5_000)
			at20k := heapAt(20_000)
			slope := (float64(at20k) - float64(at5k)) / 15_000
			t.Logf("live heap %d B at 5k admissions, %d B at 20k: %.1f B/admission", at5k, at20k, slope)
			if slope > heapSlopeBudget {
				t.Errorf("live heap grew %.1f B per admission between 5k and 20k admissions, budget %d", slope, heapSlopeBudget)
			}
		})
	}
}
