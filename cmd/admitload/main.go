// Command admitload drives an admissiond instance with an SWF-derived
// workload: closed-loop (fixed concurrency) or open-loop (fixed request
// rate), with configurable estimate inaccuracy, optional virtual-time
// submission, node-kill chaos, and a latency/status summary.
//
// Examples:
//
//	admitload -url http://127.0.0.1:8080 -jobs 1000 -concurrency 8
//	admitload -url http://127.0.0.1:8080 -jobs 500 -rate 50 -inaccuracy 100
//	admitload -url http://127.0.0.1:8080 -jobs 200 -virtual -adf 0.1
//	admitload -url http://127.0.0.1:8080 -kill 3@0.5,3@2.0
//	admitload -url http://127.0.0.1:8080 -scrape /metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersched/internal/cli"
	"clustersched/internal/workload"
)

func main() {
	cli.Main("admitload", run)
}

// admitRequest mirrors serve.AdmitRequest without importing the server
// package: the load generator talks to the daemon only over the wire,
// like any real client would.
type admitRequest struct {
	Tenant   string   `json:"tenant,omitempty"`
	NumProc  int      `json:"numproc"`
	Runtime  float64  `json:"runtime"`
	Estimate float64  `json:"estimate,omitempty"`
	Deadline float64  `json:"deadline"`
	Class    string   `json:"class,omitempty"`
	T        *float64 `json:"t,omitempty"`
}

type admitResponse struct {
	Job      int     `json:"job"`
	T        float64 `json:"t"`
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason,omitempty"`
}

// result is one request's outcome.
type result struct {
	status   int
	job      int
	t        float64
	tenant   string
	accepted bool
	latency  time.Duration
}

// ackRecord is one line of the -ack-log: a decision the daemon actually
// acknowledged (status 200). Crash harnesses replay this log to check
// that no acknowledged admission is lost across a kill.
type ackRecord struct {
	Job      int     `json:"job"`
	T        float64 `json:"t"`
	Accepted bool    `json:"accepted"`
}

// ackLogger appends acknowledged decisions to a JSONL file. Writes go
// straight to the file descriptor — no userspace buffer — so the log
// holds every ack the moment the HTTP response was read.
type ackLogger struct {
	mu sync.Mutex
	f  *os.File
}

func (a *ackLogger) log(r result) {
	if a == nil || r.status != http.StatusOK {
		return
	}
	line, err := json.Marshal(ackRecord{Job: r.job, T: r.t, Accepted: r.accepted})
	if err != nil {
		return
	}
	line = append(line, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	_, _ = a.f.Write(line)
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("admitload", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "admissiond base URL")
	jobs := fs.Int("jobs", 1000, "workload size")
	seed := fs.Uint64("seed", 1, "workload seed")
	inacc := fs.Float64("inaccuracy", 0, "estimate inaccuracy % (0=accurate, 100=trace)")
	adf := fs.Float64("adf", 1, "arrival delay factor (<1 = heavier load; shapes -virtual times)")
	rate := fs.Float64("rate", 0, "open-loop request rate per second (0 = closed loop)")
	concurrency := fs.Int("concurrency", 8, "closed-loop worker count")
	tenants := fs.Int("tenants", 4, "spread requests across this many tenants")
	virtual := fs.Bool("virtual", false, "send the workload's submit times as explicit t")
	tOffset := fs.Float64("t-offset", 0, "added to every -virtual submit time (restart harnesses advance it per run)")
	kills := fs.String("kill", "", "node-kill chaos: comma-separated node@seconds wall-clock offsets")
	scrape := fs.String("scrape", "", "GET this path (e.g. /metrics), print the body and exit")
	ackLog := fs.String("ack-log", "", "append every acknowledged (status-200) decision to this JSONL file")
	outPath := fs.String("out", "", "write a machine-readable JSON summary of the run to this file")
	abortAfter := fs.Int("abort-after-errors", 0, "stop after this many consecutive transport errors (0 = keep going); still exits 0")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request client timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: *timeout}

	if *scrape != "" {
		return doScrape(ctx, client, *url, *scrape, stdout)
	}

	var acks *ackLogger
	if *ackLog != "" {
		f, err := os.OpenFile(*ackLog, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("admitload: %w", err)
		}
		defer f.Close()
		acks = &ackLogger{f: f}
	}

	// loadCtx is cancelled when the consecutive-transport-error budget is
	// spent: the daemon is gone (a crash harness just killed it), so stop
	// generating instead of timing out on every remaining request.
	loadCtx, loadCancel := context.WithCancel(ctx)
	defer loadCancel()
	var consecErrs atomic.Int64

	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Jobs = *jobs
	gcfg.Seed = *seed
	gcfg.MaxProcs = 16 // keep requests inside small daemon clusters too
	wjobs, err := workload.Generate(gcfg)
	if err != nil {
		return err
	}
	dcfg := workload.DefaultDeadlineConfig()
	dcfg.Seed = *seed + 1
	wjobs, err = workload.AssignDeadlines(wjobs, dcfg)
	if err != nil {
		return err
	}
	workload.ScaleArrivalsInPlace(wjobs, *adf)

	chaos, err := parseKills(*kills)
	if err != nil {
		return err
	}
	for _, k := range chaos {
		k := k
		go func() {
			select {
			case <-time.After(k.after):
				body, _ := json.Marshal(map[string]any{"node": k.node, "down": true})
				resp, err := client.Post(*url+"/node", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			case <-ctx.Done():
			}
		}()
	}

	reqs := make(chan admitRequest, 64)
	go func() {
		defer close(reqs)
		var tick *time.Ticker
		if *rate > 0 {
			tick = time.NewTicker(time.Duration(float64(time.Second) / *rate))
			defer tick.Stop()
		}
		for i, j := range wjobs {
			r := admitRequest{
				Tenant:   "tenant-" + strconv.Itoa(i%*tenants),
				NumProc:  j.NumProc,
				Runtime:  j.Runtime,
				Estimate: j.EstimateAt(*inacc),
				Deadline: j.Deadline,
			}
			if j.Class == workload.LowUrgency {
				r.Class = "low"
			}
			if *virtual {
				t := j.Submit + *tOffset
				r.T = &t
			}
			if tick != nil {
				select {
				case <-tick.C:
				case <-loadCtx.Done():
					return
				}
			}
			select {
			case reqs <- r:
			case <-loadCtx.Done():
				return
			}
		}
	}()

	workers := *concurrency
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var results []result
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				if loadCtx.Err() != nil {
					return
				}
				res := post(loadCtx, client, *url, r)
				if res.status == -1 {
					if n := consecErrs.Add(1); *abortAfter > 0 && n >= int64(*abortAfter) {
						loadCancel()
					}
				} else {
					consecErrs.Store(0)
					acks.log(res)
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sum := buildSummary(results, elapsed)
	summarize(stdout, sum)
	if *outPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("admitload: %w", err)
		}
	}
	if loadCtx.Err() != nil && ctx.Err() == nil {
		fmt.Fprintf(stdout, "admitload: aborted after %d consecutive transport errors\n", *abortAfter)
	}
	// A deliberate abort is a clean exit; only the caller's own
	// cancellation propagates.
	return ctx.Err()
}

func post(ctx context.Context, client *http.Client, base string, r admitRequest) result {
	body, _ := json.Marshal(r)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/admit", bytes.NewReader(body))
	if err != nil {
		return result{status: -1, tenant: r.Tenant}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return result{status: -1, tenant: r.Tenant, latency: lat}
	}
	defer resp.Body.Close()
	var ar admitResponse
	_ = json.NewDecoder(resp.Body).Decode(&ar)
	return result{status: resp.StatusCode, job: ar.Job, t: ar.T, tenant: r.Tenant, accepted: ar.Accepted, latency: lat}
}

func doScrape(ctx context.Context, client *http.Client, base, path string, stdout io.Writer) error {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("admitload: scrape %s: %w", path, err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(stdout, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admitload: scrape %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// chaosKill is one scheduled node kill.
type chaosKill struct {
	node  int
	after time.Duration
}

// parseKills parses "node@seconds,node@seconds".
func parseKills(s string) ([]chaosKill, error) {
	if s == "" {
		return nil, nil
	}
	var out []chaosKill
	for _, part := range strings.Split(s, ",") {
		node, after, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("admitload: bad -kill entry %q, want node@seconds", part)
		}
		n, err := strconv.Atoi(node)
		if err != nil {
			return nil, fmt.Errorf("admitload: bad -kill node %q: %w", node, err)
		}
		sec, err := strconv.ParseFloat(after, 64)
		if err != nil || sec < 0 {
			return nil, fmt.Errorf("admitload: bad -kill offset %q", after)
		}
		out = append(out, chaosKill{node: n, after: time.Duration(sec * float64(time.Second))})
	}
	return out, nil
}

// loadSummary is the machine-readable run summary behind -out: status
// counts, the accept/reject split, wall-clock throughput and latency
// percentiles.
type loadSummary struct {
	Requests      int                      `json:"requests"`
	Statuses      map[string]int           `json:"statuses"`
	Accepted      int                      `json:"accepted"`
	Rejected      int                      `json:"rejected"`
	Tenants       map[string]tenantOutcome `json:"tenants,omitempty"`
	WallSeconds   float64                  `json:"wall_seconds"`
	ThroughputRPS float64                  `json:"throughput_rps"`
	LatencyP50    float64                  `json:"latency_p50_seconds"`
	LatencyP90    float64                  `json:"latency_p90_seconds"`
	LatencyP95    float64                  `json:"latency_p95_seconds"`
	LatencyP99    float64                  `json:"latency_p99_seconds"`
	LatencyMax    float64                  `json:"latency_max_seconds"`
}

// tenantOutcome is one tenant's request mix — the client-side view to
// hold against the daemon's serve_tenant_* counters.
type tenantOutcome struct {
	Requests int `json:"requests"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Denied   int `json:"denied"` // 429s (quota) and 503s (shed/queue-full)
	Errors   int `json:"errors,omitempty"`
}

// buildSummary folds the per-request results into a loadSummary.
// Latency percentiles cover every request that got an HTTP response;
// transport errors count under status "transport-error" only.
func buildSummary(results []result, elapsed time.Duration) loadSummary {
	sum := loadSummary{
		Requests: len(results),
		Statuses: map[string]int{},
		Tenants:  map[string]tenantOutcome{},
	}
	lats := make([]time.Duration, 0, len(results))
	for _, r := range results {
		label := strconv.Itoa(r.status)
		if r.status == -1 {
			label = "transport-error"
		}
		sum.Statuses[label]++
		to := sum.Tenants[r.tenant]
		to.Requests++
		switch {
		case r.status == http.StatusOK && r.accepted:
			sum.Accepted++
			to.Accepted++
		case r.status == http.StatusOK:
			sum.Rejected++
			to.Rejected++
		case r.status == -1:
			to.Errors++
		default:
			to.Denied++
		}
		sum.Tenants[r.tenant] = to
		if r.status > 0 {
			lats = append(lats, r.latency)
		}
	}
	sum.WallSeconds = elapsed.Seconds()
	if sum.WallSeconds > 0 {
		sum.ThroughputRPS = float64(len(results)) / sum.WallSeconds
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			return lats[int(p*float64(len(lats)-1))].Seconds()
		}
		sum.LatencyP50 = pct(0.50)
		sum.LatencyP90 = pct(0.90)
		sum.LatencyP95 = pct(0.95)
		sum.LatencyP99 = pct(0.99)
		sum.LatencyMax = lats[len(lats)-1].Seconds()
	}
	return sum
}

// summarize prints status counts, the accept/reject split and latency
// percentiles over the completed requests.
func summarize(w io.Writer, sum loadSummary) {
	fmt.Fprintf(w, "admitload: %d requests\n", sum.Requests)
	statuses := make([]string, 0, len(sum.Statuses))
	for st := range sum.Statuses {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	for _, st := range statuses {
		fmt.Fprintf(w, "  status %s: %d\n", st, sum.Statuses[st])
	}
	fmt.Fprintf(w, "  decided: %d accepted, %d rejected\n", sum.Accepted, sum.Rejected)
	tenants := make([]string, 0, len(sum.Tenants))
	for tn := range sum.Tenants {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		to := sum.Tenants[tn]
		fmt.Fprintf(w, "  tenant %s: %d requests, %d accepted, %d rejected, %d denied\n",
			tn, to.Requests, to.Accepted, to.Rejected, to.Denied)
	}
	if sum.LatencyMax > 0 {
		sec := func(v float64) time.Duration {
			return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
		}
		fmt.Fprintf(w, "  latency p50 %v p90 %v p99 %v max %v\n",
			sec(sum.LatencyP50), sec(sum.LatencyP90), sec(sum.LatencyP99), sec(sum.LatencyMax))
	}
}
