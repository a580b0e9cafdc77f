package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"

	"clustersched/internal/cluster"
	"clustersched/internal/sched"
	"clustersched/internal/workload"
)

// WorkloadDigest hashes the base workload a sweep runs over: every field
// of every job, in order. Two sweeps share cell results only if they
// share this digest, so a regenerated or edited workload invalidates a
// checkpoint journal instead of poisoning it.
func WorkloadDigest(jobs []workload.Job) string {
	h := sha256.New()
	var buf [8]byte
	wf := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wi(len(jobs))
	for _, j := range jobs {
		wi(j.ID)
		wf(j.Submit)
		wf(j.Runtime)
		wf(j.TraceEstimate)
		wi(j.NumProc)
		wf(j.Deadline)
		wi(int(j.Class))
		wi(j.UserID)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// baseKeyView enumerates exactly the BaseConfig fields that determine a
// cell's result. Supervision knobs (Workers, Progress, Journal, Obs) and
// the test hooks disableReuse and disableFastPaths are deliberately
// absent: re-running a sweep with a different worker count, context-reuse
// setting or fast-path setting must still match
// its journal — each is byte-identical to its reference
// by construction (asserted by the differential tests).
type baseKeyView struct {
	Nodes           int
	Rating          float64
	Ratings         []float64
	Cluster         clusterKeyView
	Generator       json.RawMessage
	Params          sched.PolicyParams
	CheckInvariants bool
}

// clusterKeyView and generatorKey put back, at the zero values every
// earlier journal holds, the settings deleted since journals were first
// written: the cluster's NaivePredictor switch and the generator's
// diurnal cycle. Those journals' keys still match.
type clusterKeyView struct {
	cluster.Config
	NaivePredictor bool
}

func generatorKey(g workload.GeneratorConfig) (json.RawMessage, error) {
	b, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	return bytes.Replace(b, []byte(`,"MeanRuntime":`),
		[]byte(`,"Diurnal":{"Amplitude":0,"PeriodHours":0,"PeakHour":0},"MeanRuntime":`), 1), nil
}

// CellKey is the content hash identifying one sweep cell for the
// checkpoint journal: everything result-determining from the base config,
// the full run spec (including its fault processes and deadline model),
// and the digest of the workload the sweep runs over. Any change to any
// of these yields a different key, so resuming against a stale journal
// re-runs rather than reuses.
func CellKey(base BaseConfig, spec RunSpec, workloadDigest string) (string, error) {
	gen, err := generatorKey(base.Generator)
	if err != nil {
		return "", err
	}
	view := struct {
		Base   baseKeyView
		Spec   RunSpec
		Digest string
	}{
		Base: baseKeyView{
			Nodes:           base.Nodes,
			Rating:          base.Rating,
			Ratings:         base.Ratings,
			Cluster:         clusterKeyView{Config: base.Cluster},
			Generator:       gen,
			Params:          base.Params,
			CheckInvariants: base.CheckInvariants,
		},
		Spec:   spec,
		Digest: workloadDigest,
	}
	b, err := json.Marshal(view)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}
