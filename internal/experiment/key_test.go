package experiment

import (
	"testing"

	"clustersched/internal/workload"
)

// TestCellKeyPinned pins the journal key of one paper-scale figure-4
// cell to the hex earlier releases wrote, so a RunSpec or key-view field
// added without `json:",omitempty"` cannot silently orphan every saved
// journal. The specs' optional fields must still separate keys.
func TestCellKeyPinned(t *testing.T) {
	base := DefaultBase()
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	digest := WorkloadDigest(jobs)
	if want := "c847e3ab44cf4df11e64028a46ba610b"; digest != want {
		t.Fatalf("WorkloadDigest = %s, want %s", digest, want)
	}
	d := base.Deadline
	d.HighUrgencyFraction = 0.2
	spec := RunSpec{
		Policy: LibraRisk, ArrivalDelayFactor: workload.DefaultArrivalDelayFactor, InaccuracyPct: 60,
		Deadline: d, Label: "figure4", Seed: base.Generator.Seed,
	}
	key := func(s RunSpec) string {
		t.Helper()
		k, err := CellKey(base, s, digest)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	plain := key(spec)
	if want := "6a081ccb9e034f005b428e354d70f890"; plain != want {
		t.Fatalf("CellKey = %s, want %s: journals written before this change would re-run every cell", plain, want)
	}
	monitored := spec
	monitored.MonitorInterval = ChaosMonitorInterval
	predicted := spec
	predicted.Estimator = "scaling"
	if k := key(monitored); k == plain {
		t.Error("MonitorInterval does not change the cell key")
	}
	if k := key(predicted); k == plain {
		t.Error("Estimator does not change the cell key")
	}
}
