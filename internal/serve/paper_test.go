package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// paperJobs is the default 3000-job SDSC-SP2-like workload for seed,
// with its deadlines.
func paperJobs(t *testing.T, seed uint64) []workload.Job {
	t.Helper()
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Seed = seed
	jobs, err := workload.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := workload.DefaultDeadlineConfig()
	dcfg.Seed = seed + 1
	if jobs, err = workload.AssignDeadlines(jobs, dcfg); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// decisionLog is a policy that records each Submit's answer by job ID.
type decisionLog struct {
	core.Policy
	accepted map[int]bool
}

func (d *decisionLog) Submit(e *sim.Engine, job workload.Job, estimate float64) (bool, string) {
	ok, reason := d.Policy.Submit(e, job, estimate)
	d.accepted[job.ID] = ok
	return ok, reason
}

// batchRun is the paper's batch simulation of jobs: every answer in
// submit order, and the final summary.
func batchRun(t *testing.T, policy string, jobs []workload.Job, pct float64) ([]bool, metrics.Summary) {
	t.Helper()
	return batchRunRated(t, policy, jobs, pct, workload.SDSCSP2Rating)
}

// batchRunRated is batchRun on nodes of the given rating, with the
// paper's rating as the reference.
func batchRunRated(t *testing.T, policy string, jobs []workload.Job, pct, rating float64) ([]bool, metrics.Summary) {
	t.Helper()
	ratings := make([]float64, workload.SDSCSP2Nodes)
	for i := range ratings {
		ratings[i] = rating
	}
	ccfg := cluster.DefaultConfig()
	ccfg.RefRating = workload.SDSCSP2Rating
	rec := metrics.NewRecorder()
	pol, _, _, err := sched.NewPolicy(policy, sched.PolicyParams{}, ratings, ccfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	log := &decisionLog{Policy: pol, accepted: make(map[int]bool, len(jobs))}
	if err := core.RunSimulation(sim.NewEngine(), log, rec, jobs, pct); err != nil {
		t.Fatal(err)
	}
	answers := make([]bool, len(jobs))
	for i, j := range jobs {
		answers[i] = log.accepted[j.ID]
	}
	return answers, rec.Summarize()
}

// TestNodeSpeedSymmetry: doubling every node's rating at a fixed
// RefRating halves every job's node-seconds, and so does halving every
// runtime and estimate. Both scale by a power of two, which is exact, so
// every policy must give the same per-job answers. Libra's share broke
// this while it charged the candidate in reference-seconds and the
// residents in node-seconds.
func TestNodeSpeedSymmetry(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		jobs := paperJobs(t, seed)
		halved := make([]workload.Job, len(jobs))
		for i, j := range jobs {
			j.Runtime /= 2
			j.TraceEstimate /= 2
			halved[i] = j
		}
		for _, policy := range []string{"edf", "libra", "librarisk"} {
			for _, pct := range []float64{0, 100} {
				fast, _ := batchRunRated(t, policy, jobs, pct, 2*workload.SDSCSP2Rating)
				short, _ := batchRunRated(t, policy, halved, pct, workload.SDSCSP2Rating)
				flips := 0
				for i := range fast {
					if fast[i] != short[i] {
						flips++
					}
				}
				if flips > 0 {
					t.Errorf("seed %d %s pct %g: %d of %d answers differ between 2x nodes and halved jobs", seed, policy, pct, flips, len(jobs))
				}
			}
		}
	}
}

// persistence is how a serveRun daemon keeps its ops across the drain:
// not at all (no drain), a drain checkpoint, or a write-ahead log.
type persistence struct {
	name   string
	ckpt   string
	walDir string
}

// serveRun sends jobs to a daemon one request at a time, at t = submit
// and with the estimate the batch run sees, then runs its engine to the
// end. With a checkpoint or a log it drains after resumeAt jobs and
// resumes a fresh daemon from it for the rest.
func serveRun(t *testing.T, policy string, jobs []workload.Job, pct float64, p persistence, resumeAt int) ([]bool, metrics.Summary) {
	t.Helper()
	cfg := Config{
		Policy:         policy,
		Nodes:          workload.SDSCSP2Nodes,
		Rating:         workload.SDSCSP2Rating,
		CheckpointPath: p.ckpt,
		WALDir:         p.walDir,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	answers := make([]bool, len(jobs))
	for i, j := range jobs {
		if (p.ckpt != "" || p.walDir != "") && i == resumeAt {
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("drain at job %d: %v", i, err)
			}
			cfg.Resume = true
			if s, err = New(cfg); err != nil {
				t.Fatalf("resume at job %d: %v", i, err)
			}
			h = s.Handler()
		}
		at := j.Submit
		class := "high"
		if j.Class == workload.LowUrgency {
			class = "low"
		}
		body, err := json.Marshal(AdmitRequest{
			NumProc: j.NumProc, Runtime: j.Runtime, Estimate: j.EstimateAt(pct),
			Deadline: j.Deadline, Class: class, T: &at,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(body)))
		var out AdmitResponse
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &out) != nil {
			t.Fatalf("job %d: status %d: %s", i, rr.Code, rr.Body)
		}
		answers[i] = out.Accepted
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.SetHorizon(math.Inf(1))
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
	s.rec.Flush()
	return answers, s.rec.Summarize()
}

// TestServeMatchesBatchAtPaperScale: the daemon is the paper's algorithm.
// Fed the paper-scale workload one request at a time, it answers every
// job as the batch simulation decides it under Libra and LibraRisk, and
// ends with the batch simulation's summary, float for float, under all
// three policies — also across a drain to a checkpoint or to a
// write-ahead log and a resume halfway. EDF's answer is its queueing, not its dispatch decision, so
// only its summary is compared.
func TestServeMatchesBatchAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential")
	}
	for _, seed := range []uint64{1, 2} {
		jobs := paperJobs(t, seed)
		for _, pct := range []float64{0, 100} {
			for _, policy := range []string{"edf", "libra", "librarisk"} {
				t.Run(fmt.Sprintf("seed%d/pct%g/%s", seed, pct, policy), func(t *testing.T) {
					t.Parallel()
					wantAns, want := batchRun(t, policy, jobs, pct)
					variants := []persistence{{name: "memory"}}
					if seed == 1 {
						variants = append(variants, persistence{name: "checkpoint", ckpt: filepath.Join(t.TempDir(), "drain.ckpt")})
						if pct == 100 {
							variants = append(variants, persistence{name: "wal", walDir: filepath.Join(t.TempDir(), "wal")})
						}
					}
					for _, p := range variants {
						gotAns, got := serveRun(t, policy, jobs, pct, p, len(jobs)/2)
						if got != want {
							t.Errorf("%s: daemon summary\n%+v\nbatch summary\n%+v", p.name, got, want)
						}
						if policy == "edf" {
							continue
						}
						for i := range jobs {
							if gotAns[i] != wantAns[i] {
								t.Errorf("%s: job %d (id %d): daemon accepted=%v, batch %v",
									p.name, i, jobs[i].ID, gotAns[i], wantAns[i])
								break
							}
						}
					}
				})
			}
		}
	}
}
