package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"clustersched"
	"clustersched/internal/checkpoint"
	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/obs/span"
	"clustersched/internal/serve"
	"clustersched/internal/sim"
	"clustersched/internal/wal"
	"clustersched/internal/workload"
)

// The traced run. It replays the first TraceOps requests of the
// workload's stream in-process, on one goroutine, through a ladder of
// rungs — policy core → HTTP handler → loopback connection → +WAL — and
// times the calls into each layer's public functions from here. Spans
// are recorded around those calls only; nothing inside the product is
// instrumented.

// Rung timelines in the Chrome trace.
const (
	tidSetup = iota + 1
	tidCore
	tidHandler
	tidLoopback
	tidWAL
	tidSpans
)

// traceSpan is one harness-side span: a call into a layer.
type traceSpan struct {
	name       string
	tid        int
	parent     int // index of the causing span, -1 for a root
	op         int // request index, -1 when the span is not one request's
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced side of trace.overhead_pct.
type tracer struct {
	spans []traceSpan
}

func (t *tracer) add(name string, tid, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, traceSpan{name, tid, parent, op, start, end})
	return len(t.spans) - 1
}

// write renders the spans as Chrome trace_event JSON, the format
// obs.ValidateChromeTrace checks.
func (t *tracer) write(w io.Writer) error {
	type event struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Args  map[string]any `json:"args,omitempty"`
	}
	if len(t.spans) == 0 {
		return fmt.Errorf("trace: no spans recorded")
	}
	epoch := t.spans[0].start
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.op >= 0 {
			args["op"] = s.op
		}
		events[i] = event{
			Name: s.name, Phase: "X", Pid: 1, Tid: s.tid, Args: args,
			Ts:  float64(s.start.Sub(epoch)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// p50p99 returns the median and 99th percentile of samples.
func p50p99(samples []float64) (float64, float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 50), percentile(s, 99)
}

// coreResult is what the policy-core rung measured.
type coreResult struct {
	opUS      []float64
	advance   time.Duration
	events    uint64
	accepted  []bool
	predictNS float64
	riskNS    float64
	depth     float64 // resident slices per busy node when probed
}

// coreRung applies the stream directly to an engine, a time-shared
// cluster and the LibraRisk policy, the way the server's apply worker
// does: advance the clock to t, firing every completion due, then submit.
func coreRung(s spec, reqs []request, tr *tracer) (coreResult, error) {
	var out coreResult
	eng := sim.NewEngine()
	rec := metrics.NewRecorder()
	ts, err := cluster.NewTimeShared(s.Nodes, workload.SDSCSP2Rating, cluster.DefaultConfig())
	if err != nil {
		return out, err
	}
	pol := core.NewLibraRisk(ts, rec)
	rung0 := time.Now()
	root := tr.add("rung.core", tidCore, -1, -1, rung0, rung0)
	for i, r := range reqs {
		job := workload.Job{
			ID: i + 1, Submit: *r.req.T, Runtime: r.req.Runtime, TraceEstimate: r.req.Estimate,
			NumProc: r.req.NumProc, Deadline: r.req.Deadline,
		}
		if r.req.Class == "low" {
			job.Class = workload.LowUrgency
		}
		n0 := len(rec.Results())
		ev0 := eng.Processed()
		t0 := time.Now()
		if job.Submit > eng.Now() {
			eng.SetHorizon(job.Submit)
			if err := eng.Run(); err != nil {
				return out, fmt.Errorf("core rung: advancing to t=%g: %w", job.Submit, err)
			}
			eng.AdvanceTo(job.Submit)
		}
		t1 := time.Now()
		pol.Submit(eng, job, r.req.Estimate)
		t2 := time.Now()
		out.events += eng.Processed() - ev0
		out.advance += t1.Sub(t0)
		out.opUS = append(out.opUS, us(t2.Sub(t0)))
		op := tr.add("core.op", tidCore, root, i, t0, t2)
		tr.add("sim.advance", tidCore, op, i, t0, t1)
		tr.add("core.submit", tidCore, op, i, t1, t2)
		ok := true
		for _, res := range rec.Results()[n0:] {
			if res.JobID == job.ID && res.Outcome == metrics.Rejected {
				ok = false
			}
		}
		out.accepted = append(out.accepted, ok)
	}
	if tr != nil {
		tr.spans[root].end = time.Now()
	}

	// Probe the predictor and the node risk at the depth the stream left
	// resident: every busy node, a candidate shaped like the last job.
	last := reqs[len(reqs)-1].req
	cand := &cluster.Candidate{JobID: len(reqs) + 1, RefWork: last.Estimate, AbsDeadline: eng.Now() + last.Deadline}
	var busy []*cluster.PSNode
	slices := 0
	for i := 0; i < ts.Len(); i++ {
		if n := ts.Node(i); n.NumSlices() > 0 && !n.Down() {
			busy = append(busy, n)
			slices += n.NumSlices()
		}
	}
	if len(busy) == 0 {
		return out, fmt.Errorf("core rung: no busy node to probe after %d ops", len(reqs))
	}
	out.depth = float64(slices) / float64(len(busy))
	const probeCalls = 20000
	now := eng.Now()
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		_ = busy[i%len(busy)].PredictDelaysScratch(now, cand)
	}
	t1 := time.Now()
	for i := 0; i < probeCalls; i++ {
		_, _ = pol.NodeRisk(now, busy[i%len(busy)], cand)
	}
	t2 := time.Now()
	tr.add("cluster.predict x20000", tidCore, -1, -1, t0, t1)
	tr.add("core.node_risk x20000", tidCore, -1, -1, t1, t2)
	out.predictNS = float64(t1.Sub(t0)) / probeCalls
	out.riskNS = float64(t2.Sub(t1)) / probeCalls
	return out, nil
}

// clusterSubmitNS times TimeShared.Submit alone: the stream's jobs placed
// on consecutive nodes with no admission test. The cluster is emptied
// whenever it holds depth slices per node, so the calls see the resident
// depth the stream itself produces and not an ever-growing pile.
func clusterSubmitNS(s spec, reqs []request, depth float64, tr *tracer) (float64, error) {
	eng := sim.NewEngine()
	ts, err := cluster.NewTimeShared(s.Nodes, workload.SDSCSP2Rating, cluster.DefaultConfig())
	if err != nil {
		return 0, err
	}
	limit := int(math.Ceil(depth)) * s.Nodes
	ids := make([]int, 0, s.Nodes)
	at, resident := 0, 0
	var total time.Duration
	t0 := time.Now()
	for i, r := range reqs {
		job := workload.Job{ID: i + 1, Runtime: r.req.Runtime, TraceEstimate: r.req.Estimate,
			NumProc: r.req.NumProc, Deadline: r.req.Deadline}
		if resident+job.NumProc > limit {
			eng.Reset()
			ts.Reset()
			resident = 0
		}
		resident += job.NumProc
		ids = ids[:0]
		for k := 0; k < job.NumProc; k++ {
			ids = append(ids, (at+k)%s.Nodes)
		}
		at = (at + job.NumProc) % s.Nodes
		c0 := time.Now()
		_, err := ts.Submit(eng, job, r.req.Estimate, ids)
		total += time.Since(c0)
		if err != nil {
			return 0, err
		}
	}
	tr.add("cluster.submit x"+strconv.Itoa(len(reqs)), tidCore, -1, -1, t0, time.Now())
	return float64(total) / float64(len(reqs)), nil
}

// handlerResult is what one pass through ServeHTTP measured.
type handlerResult struct {
	opUS     []float64
	wall     time.Duration
	accepted []bool
	non200   int
	stateUS  []float64
	scrapeUS []float64
	lastProm string
}

// readEvery is how often the handler rung interleaves a /state and a
// /metrics read with the writes.
const readEvery = 250

// handlerRung pushes the stream through the server's handler, one
// ServeHTTP call per request, timing only that call.
func handlerRung(h http.Handler, reqs []request, tr *tracer) handlerResult {
	var out handlerResult
	rung0 := time.Now()
	root := tr.add("rung.handler", tidHandler, -1, -1, rung0, rung0)
	timedGet := func(path, name string) (float64, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		tr.add(name, tidHandler, root, -1, t0, t1)
		if rec.Code != http.StatusOK {
			out.non200++
		}
		return us(t1.Sub(t0)), rec.Body.String()
	}
	for i, r := range reqs {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(r.body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		tr.add("serve.handler", tidHandler, root, i, t0, t1)
		out.opUS = append(out.opUS, us(t1.Sub(t0)))
		var ar serve.AdmitResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ar) != nil {
			out.non200++
		}
		out.accepted = append(out.accepted, ar.Accepted)
		if (i+1)%readEvery == 0 {
			d, _ := timedGet("/state", "serve.state")
			out.stateUS = append(out.stateUS, d)
			d, out.lastProm = timedGet("/metrics", "serve.metrics")
			out.scrapeUS = append(out.scrapeUS, d)
		}
	}
	out.wall = time.Since(rung0)
	if tr != nil {
		tr.spans[root].end = time.Now()
	}
	return out
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// healthzCalls sizes the /healthz floor measurement.
const healthzCalls = 1000

// daemonResult is what one pass against a real admissiond measured.
type daemonResult struct {
	p50US     float64
	healthzUS float64
	accepted  []bool
	prom      string       // /metrics after the stream
	spans     span.Payload // /debug/spans, when the daemon ran with -spans
	walDir    string
}

// daemonPass is a rung on the real daemon: it boots a fresh admissiond,
// sends the stream over one keep-alive connection and reads the client
// side p50, the /healthz floor and the daemon's own counters.
func (b *bench) daemonPass(s spec, reqs []request, durable, spans bool, name string, tid int, tr *tracer) (daemonResult, error) {
	var out daemonResult
	args := daemonArgs{nodes: s.Nodes, spans: spans}
	if durable {
		out.walDir = filepath.Join(b.tmp, name, "wal")
		args.walDir = out.walDir
	}
	d, _, err := b.procs.startDaemon(b.admissiond, args)
	if err != nil {
		return out, err
	}
	defer d.kill()
	t0 := time.Now()
	res, err := drive(d.base, reqs, 1)
	root := tr.add("rung."+name, tid, -1, -1, t0, time.Now())
	b.sent += len(reqs)
	b.failed += countFailed(res)
	if err != nil {
		return out, err
	}
	lat := make([]float64, len(res))
	for i, r := range res {
		lat[i] = r.latMS * 1e3
		out.accepted = append(out.accepted, r.accepted)
		end := t0.Add(time.Duration(r.endS * 1e9))
		tr.add("wire.admit", tid, root, i, end.Add(-time.Duration(r.latMS*1e6)), end)
	}
	out.p50US, _ = p50p99(lat)

	c, err := dial(d.base)
	if err != nil {
		return out, err
	}
	defer c.close()
	healthz := make([]float64, healthzCalls)
	h0 := time.Now()
	for i := range healthz {
		c0 := time.Now()
		if status, _, err := c.do("/healthz", nil); err != nil || status != http.StatusOK {
			return out, fmt.Errorf("GET /healthz: status %d: %v", status, err)
		}
		healthz[i] = us(time.Since(c0))
	}
	tr.add("wire.healthz x"+strconv.Itoa(healthzCalls), tid, -1, -1, h0, time.Now())
	out.healthzUS, _ = p50p99(healthz)
	_, prom, err := c.do("/metrics", nil)
	if err != nil {
		return out, err
	}
	out.prom = string(prom)
	if spans {
		_, raw, err := c.do("/debug/spans?n=1024", nil)
		if err != nil {
			return out, err
		}
		if err := json.Unmarshal(raw, &out.spans); err != nil {
			return out, err
		}
	}
	if err := d.terminate(); err != nil {
		b.fail("%s rung: daemon drain: %v", name, err)
	}
	return out, nil
}

// sameDecisions reports the first index where two decision streams differ.
func sameDecisions(a, b []bool) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// runLayers is the traced run: every per-layer metric of one workload.
func (b *bench) runLayers(s spec) error {
	tr := &tracer{}
	n := s.TraceOps

	// workload
	t0 := time.Now()
	jobs, err := genJobs(b.seed, n, s.MaxProcs, s.ADF)
	if err != nil {
		return err
	}
	t1 := time.Now()
	tr.add("workload.generate", tidSetup, -1, -1, t0, t1)
	b.putValue("workload.gen_us_per_job", "us", us(t1.Sub(t0))/float64(n), "Generate + AssignDeadlines + ScaleArrivals")
	reqs, err := requestsFrom(jobs)
	if err != nil {
		return err
	}

	// sim, cluster, core
	cr, err := coreRung(s, reqs, tr)
	if err != nil {
		return err
	}
	b.sent += n
	submitNS, err := clusterSubmitNS(s, reqs, cr.depth, tr)
	if err != nil {
		return err
	}
	coreP50, _ := p50p99(cr.opUS)
	accepted := 0
	for _, ok := range cr.accepted {
		if ok {
			accepted++
		}
	}
	b.acceptedPct = 100 * float64(accepted) / float64(n)
	eventNS := 0.0
	if cr.events > 0 {
		eventNS = float64(cr.advance) / float64(cr.events)
	}
	b.putValue("sim.event_ns", "ns", eventNS, "advance time per processed event")
	b.putValue("sim.events_per_op", "count", float64(cr.events)/float64(n), "Engine.Processed per op")
	b.putValue("cluster.predict_ns", "ns", cr.predictNS, fmt.Sprintf("PredictDelaysScratch at %.1f resident slices per busy node", cr.depth))
	b.putValue("cluster.slices_per_node", "count", cr.depth, "resident slices per busy node after the stream")
	b.putValue("cluster.submit_ns", "ns", submitNS, "TimeShared.Submit alone")
	b.putValue("core.node_risk_ns", "ns", cr.riskNS, "LibraRisk.NodeRisk at the same depth")
	b.putValue("core.submit_us", "us", coreP50, "p50 of advance to t + Policy.Submit")
	b.putValue("core.accept_ratio", "ratio", float64(accepted)/float64(n), "accepted / submitted")

	// serve: construction, handler, checkpoint and resume
	var newMS []float64
	for i := 0; i < 5; i++ {
		c0 := time.Now()
		srv, err := newReplayServer(s, nil)
		if err != nil {
			return err
		}
		newMS = append(newMS, float64(time.Since(c0))/1e6)
		srv.Close()
	}
	b.put("serve.new_ms", "ms", summarize(newMS), "serve.New on an empty config")

	ckpt := filepath.Join(b.tmp, "ladder.ckpt")
	srv, err := newReplayServer(s, func(c *serve.Config) { c.CheckpointPath = ckpt })
	if err != nil {
		return err
	}
	hr := handlerRung(srv.Handler(), reqs, tr)
	if err := srv.Close(); err != nil {
		return err
	}
	b.sent += n
	b.failed += hr.non200
	if i := sameDecisions(cr.accepted, hr.accepted); i >= 0 {
		b.fail("op %d: policy core and HTTP handler decide differently", i)
	}
	handlerP50, handlerP99 := p50p99(hr.opUS)
	stateP50, _ := p50p99(hr.stateUS)
	scrapeP50, _ := p50p99(hr.scrapeUS)
	b.putValue("serve.handler_p50_us", "us", handlerP50, "ServeHTTP /admit")
	b.putValue("serve.handler_p99_us", "us", handlerP99, "ServeHTTP /admit")
	b.putValue("serve.self_us", "us", handlerP50-coreP50, "handler p50 - core p50")
	b.putValue("serve.state_us", "us", stateP50, "ServeHTTP /state between writes")
	b.putValue("serve.metrics_scrape_us", "us", scrapeP50, "ServeHTTP /metrics between writes")
	b.putValue("serve.non200", "count", float64(hr.non200), "answers other than 200 in the handler rung")
	b.putValue("serve.shed_total", "count",
		promValue(hr.lastProm, "serve_shed_class_total")+promValue(hr.lastProm, "serve_shed_all_total"), "from /metrics")
	b.putValue("serve.timeouts_total", "count", promValue(hr.lastProm, "serve_timeouts_total"), "from /metrics")
	b.putValue("serve.queue_full_total", "count", promValue(hr.lastProm, "serve_queue_full_total"), "from /metrics")

	// The untraced twin of the handler rung: what recording spans costs.
	plain, err := newReplayServer(s, nil)
	if err != nil {
		return err
	}
	hrPlain := handlerRung(plain.Handler(), reqs, nil)
	plain.Close()
	b.sent += n
	b.failed += hrPlain.non200
	b.putValue("trace.overhead_pct", "%", 100*(hr.wall.Seconds()-hrPlain.wall.Seconds())/hrPlain.wall.Seconds(),
		"handler rung wall time, traced vs untraced")

	// checkpoint: the drain checkpoint the handler rung's server wrote.
	c0 := time.Now()
	lines, err := checkpoint.ReadFileLines(ckpt)
	if err != nil {
		return err
	}
	c1 := time.Now()
	if err := checkpoint.WriteFileLines(wal.OSFS{}, filepath.Join(b.tmp, "copy.ckpt"), lines); err != nil {
		return err
	}
	c2 := time.Now()
	tr.add("checkpoint.read", tidSetup, -1, -1, c0, c1)
	tr.add("checkpoint.write", tidSetup, -1, -1, c1, c2)
	b.putValue("checkpoint.read_us_per_op", "us", us(c1.Sub(c0))/float64(n), "ReadFileLines of the drain checkpoint")
	b.putValue("checkpoint.write_ms", "ms", float64(c2.Sub(c1))/1e6, "WriteFileLines of the same lines, fsynced")
	r0 := time.Now()
	resumed, err := newReplayServer(s, func(c *serve.Config) { c.CheckpointPath = ckpt; c.Resume = true })
	if err != nil {
		return err
	}
	r1 := time.Now()
	tr.add("serve.resume", tidSetup, -1, -1, r0, r1)
	if got := resumed.OpsApplied(); got != n {
		b.fail("in-process resume applied %d ops, want %d", got, n)
	}
	resumed.Close()
	b.putValue("serve.resume_us_per_op", "us", us(r1.Sub(r0))/float64(n), "serve.New with Resume over the drain checkpoint")

	// wire: the real daemon behind one loopback connection
	lr, err := b.daemonPass(s, reqs, false, false, "loopback", tidLoopback, tr)
	if err != nil {
		return err
	}
	if i := sameDecisions(cr.accepted, lr.accepted); i >= 0 {
		b.fail("op %d: policy core and daemon decide differently", i)
	}
	b.putValue("wire.rtt_us", "us", lr.p50US-handlerP50, "daemon p50 at 1 connection - handler p50")
	b.putValue("wire.healthz_us", "us", lr.healthzUS, "GET /healthz p50 on one connection: the floor")

	// wal: the same rung with -durable on the real filesystem
	wr, err := b.daemonPass(s, reqs, true, false, "wal", tidWAL, tr)
	if err != nil {
		return err
	}
	if i := sameDecisions(cr.accepted, wr.accepted); i >= 0 {
		b.fail("op %d: policy core and durable daemon decide differently", i)
	}
	appends := promValue(wr.prom, "serve_wal_appends_total")
	commits := promValue(wr.prom, "serve_wal_commits_total")
	if appends == 0 || commits == 0 {
		return fmt.Errorf("wal rung: /metrics reports %g appends and %g commits", appends, commits)
	}
	b.putValue("wal.bytes_per_op", "B", promValue(wr.prom, "serve_wal_appended_bytes_total")/appends, "appended bytes / appends")
	b.putValue("wal.ops_per_fsync", "ratio", appends/commits, "appends / commits at 1 connection")
	b.putValue("wal.rotations", "count", promValue(wr.prom, "serve_wal_rotations_total"), "segment rotations")
	b.putValue("wal.compactions", "count", promValue(wr.prom, "serve_wal_compactions_total"), "segments folded")
	o0 := time.Now()
	log, recov, err := wal.Open(wal.Options{Dir: wr.walDir})
	if err != nil {
		return err
	}
	o1 := time.Now()
	tr.add("wal.open", tidWAL, -1, -1, o0, o1)
	if err := log.Close(); err != nil {
		return err
	}
	if len(recov.Records) != n {
		b.fail("wal.Open recovered %d records, want %d", len(recov.Records), n)
	}
	b.putValue("wal.open_us_per_record", "us", us(o1.Sub(o0))/float64(len(recov.Records)), "wal.Open scan of the rung's log")
	// The same records appended and synced one by one on a fresh log.
	log, _, err = wal.Open(wal.Options{Dir: filepath.Join(b.tmp, "directwal")})
	if err != nil {
		return err
	}
	var appendTotal time.Duration
	syncUS := make([]float64, 0, n)
	d0 := time.Now()
	for _, rec := range recov.Records {
		a0 := time.Now()
		idx, err := log.Append(rec.Data)
		a1 := time.Now()
		if err == nil {
			_, err = log.SyncTo(idx)
		}
		if err != nil {
			return err
		}
		appendTotal += a1.Sub(a0)
		syncUS = append(syncUS, us(time.Since(a1)))
	}
	tr.add("wal.append+sync x"+strconv.Itoa(n), tidWAL, -1, -1, d0, time.Now())
	if err := log.Close(); err != nil {
		return err
	}
	syncP50, _ := p50p99(syncUS)
	b.putValue("wal.append_ns", "ns", float64(appendTotal)/float64(len(recov.Records)), "Log.Append")
	b.putValue("wal.sync_us", "us", syncP50, "Log.SyncTo p50, one record per sync")

	// ladder
	top := lr
	if s.Durable {
		top = wr
	}
	b.putValue("ladder.wal_us", "us", wr.p50US-lr.p50US, "durable daemon p50 - daemon p50")
	b.putValue("ladder.e2e_us", "us", top.p50US, "top rung p50 at 1 connection: the rung deltas sum to it")
	b.putValue("core.share_of_op", "ratio", coreP50/top.p50US, "core.submit_us / ladder.e2e_us")

	// serve stages and span overhead: the top rung again with -spans
	sr, err := b.daemonPass(s, reqs, s.Durable, true, "spans", tidSpans, tr)
	if err != nil {
		return err
	}
	payload := sr.spans
	b.putValue("obs.span_overhead_pct", "%", 100*(sr.p50US-top.p50US)/top.p50US, "daemon client p50, -spans on vs off")
	var stageSum [span.NumStages]float64
	var totalSum float64
	var advDecide []float64
	for _, sp := range payload.Spans {
		totalSum += sp.TotalSec
		for st, name := range span.Names() {
			stageSum[st] += sp.Stages[name]
		}
		advDecide = append(advDecide, 1e6*(sp.Stages["advance"]+sp.Stages["decide"]))
	}
	if totalSum == 0 {
		return fmt.Errorf("/debug/spans returned no spans")
	}
	for st, name := range span.Names() {
		b.putValue("serve.stage_"+name+"_share", "ratio", stageSum[st]/totalSum,
			fmt.Sprintf("share of span time over the last %d daemon spans", len(payload.Spans)))
	}
	adP50, _ := p50p99(advDecide)
	b.putValue("ladder.residual_pct", "%", 100*math.Abs(coreP50-adP50)/coreP50,
		fmt.Sprintf("core.submit_us vs the daemon's advance+decide p50 (%.1f us)", adP50))

	// experiment: a figure-4 sweep at this workload's cluster size
	cellMS, wall1, err := figure4(b.seed, s, 1)
	if err != nil {
		return err
	}
	_, wall2, err := figure4(b.seed, s, 2)
	if err != nil {
		return err
	}
	sort.Float64s(cellMS)
	b.putValue("experiment.cell_ms_p50", "ms", percentile(cellMS, 50),
		fmt.Sprintf("figure-4 cell, %d jobs on %d nodes, 1 worker", s.ExpJobs, s.Nodes))
	b.putValue("experiment.worker_scaling", "ratio", wall1/wall2, "figure-4 rate at 2 workers / at 1 worker")

	// Spans leave memory only now, after everything was measured.
	path := filepath.Join(b.root, "bench", "out", s.Name+".trace.json")
	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	events, err := obs.ValidateChromeTrace(&buf)
	if err != nil {
		b.fail("trace file: %v", err)
	}
	fmt.Printf("  trace: %d spans in %s\n", events, path)
	return nil
}

// figure4 builds figure 4 at the workload's cluster size and returns the
// per-cell wall times and the build's wall time in seconds.
func figure4(seed uint64, s spec, workers int) ([]float64, float64, error) {
	o := batchOptions(seed)
	o.Jobs = s.ExpJobs
	o.Nodes = s.Nodes
	cellMS, wallS, _, err := buildFigures(o, workers, "", []string{"figure4"}, func(clustersched.BuildProgress) {})
	return cellMS, wallS, err
}
