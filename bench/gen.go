package main

import (
	"encoding/json"
	"strconv"

	"clustersched/internal/serve"
	"clustersched/internal/workload"
)

// estimateInaccuracyPct is fixed at the trace's own estimates: the
// inaccurate runtime estimates the paper is about.
const estimateInaccuracyPct = 100

// tenants spreads requests across a few tenant labels, as a shared
// cluster would see.
const tenants = 4

// request is one admission request of the stream: the typed form for
// in-process layers and the exact bytes sent over the wire.
type request struct {
	req  serve.AdmitRequest
	body []byte
}

// genJobs draws n jobs of the paper's SDSC-SP2-like model from seed,
// with deadlines, capped at maxProcs processors and with arrivals
// compressed by adf.
func genJobs(seed uint64, n, maxProcs int, adf float64) ([]workload.Job, error) {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Jobs = n
	gcfg.Seed = seed
	gcfg.MaxProcs = maxProcs
	jobs, err := workload.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	dcfg := workload.DefaultDeadlineConfig()
	dcfg.Seed = seed + 1
	jobs, err = workload.AssignDeadlines(jobs, dcfg)
	if err != nil {
		return nil, err
	}
	workload.ScaleArrivalsInPlace(jobs, adf)
	return jobs, nil
}

// genRequests turns the seeded job stream into admission requests. Every
// request pins its virtual submit time t, so the daemon's clock is
// driven by the trace and a stream replays to the same decisions.
func genRequests(seed uint64, n int, s spec) ([]request, error) {
	jobs, err := genJobs(seed, n, s.MaxProcs, s.ADF)
	if err != nil {
		return nil, err
	}
	return requestsFrom(jobs)
}

func requestsFrom(jobs []workload.Job) ([]request, error) {
	out := make([]request, len(jobs))
	for i, j := range jobs {
		t := j.Submit
		r := serve.AdmitRequest{
			Tenant:   "tenant-" + strconv.Itoa(i%tenants),
			NumProc:  j.NumProc,
			Runtime:  j.Runtime,
			Estimate: j.EstimateAt(estimateInaccuracyPct),
			Deadline: j.Deadline,
			T:        &t,
		}
		if j.Class == workload.LowUrgency {
			r.Class = "low"
		}
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = request{req: r, body: body}
	}
	return out, nil
}
