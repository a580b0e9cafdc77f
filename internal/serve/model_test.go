package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/fault"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/wal"
	"clustersched/internal/workload"
)

// refServer is the sequential reference the daemon must agree with: the
// paper's admission algorithm applied one op at a time, with no WAL,
// batching, spans, quotas or replay. Its policy comes from the same
// sched.NewPolicy call serve.New makes.
type refServer struct {
	eng   *sim.Engine
	pol   core.Policy
	rec   *metrics.Recorder
	nodes fault.Cluster
	audit *obs.AuditLog
	out   bytes.Buffer // the audit JSONL of every op applied so far
	ends  []int        // out.Len() after each op: ends[k-1] bounds the first k ops' audit

	admitted, rejected uint64
}

// refResult is what the reference decided for one op.
type refResult struct {
	T        float64
	Accepted bool
	Reason   string
	Killed   int
}

func newRefServer(t *testing.T, cfg Config) *refServer {
	t.Helper()
	cfg = cfg.withDefaults()
	ratings := make([]float64, cfg.Nodes)
	for i := range ratings {
		ratings[i] = cfg.Rating
	}
	ccfg := cluster.DefaultConfig()
	ccfg.RefRating = cfg.Rating
	m := &refServer{eng: sim.NewEngine(), rec: metrics.NewRecorder()}
	pol, ts, ss, err := sched.NewPolicy(cfg.Policy, sched.PolicyParams{SigmaThreshold: cfg.SigmaThreshold}, ratings, ccfg, m.rec)
	if err != nil {
		t.Fatal(err)
	}
	m.pol, m.nodes = pol, fault.ClusterOf(ts, ss)
	m.audit = obs.NewAuditLog("serve", pol.Name())
	if p, ok := pol.(interface {
		SetObs(obs.Tracer, *obs.SimMetrics, *obs.AuditLog)
	}); ok {
		p.SetObs(nil, nil, m.audit)
	}
	return m
}

// apply clamps the op's time to the clock, fires every event at or
// before it, then admits the job or crashes/repairs the node, and drains
// the audit.
func (m *refServer) apply(t *testing.T, op Op) refResult {
	t.Helper()
	if op.T < m.eng.Now() {
		op.T = m.eng.Now()
	}
	m.eng.SetHorizon(op.T)
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	m.eng.AdvanceTo(op.T)
	res := refResult{T: op.T, Accepted: true}
	if op.Kind == "node" {
		res.Killed = m.nodes.Down(m.eng, op.Node, op.Down)
	} else {
		n0 := len(m.rec.Results())
		m.pol.Submit(m.eng, workload.Job{
			ID: op.Seq, Submit: op.T, Runtime: op.Runtime, TraceEstimate: op.Estimate,
			NumProc: op.NumProc, Deadline: op.Deadline, Class: workload.Class(op.Class),
		}, op.Estimate)
		for _, r := range m.rec.Results()[n0:] {
			if r.JobID == op.Seq && r.Outcome == metrics.Rejected {
				res.Accepted, res.Reason = false, r.Reason
				break
			}
		}
		if res.Accepted {
			m.admitted++
		} else {
			m.rejected++
		}
	}
	if err := obs.WriteAuditJSONL(&m.out, m.audit.Drain()); err != nil {
		t.Fatal(err)
	}
	m.ends = append(m.ends, m.out.Len())
	return res
}

// auditOf is the reference audit stream over the first k ops.
func (m *refServer) auditOf(k int) []byte {
	if k == 0 {
		return nil
	}
	return m.out.Bytes()[:m.ends[k-1]]
}

// TestServeModel drives the real server through Handler() with seeded
// random scripts — concurrent admit bursts, node crash/repair, drain and
// resume, crash (a copy of the live WAL directory) and resume, and an
// injected fsync failure — over random policies, durability and
// tracing, and checks every answer against refServer. Each seed is its
// own subtest, so -run 'TestServeModel/seed=N' replays one failure.
func TestServeModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newModelRun(t, seed).play(30)
		})
	}
}

// modelRun is one script's state: the live server incarnation, the
// reference, and the ops the server sequenced so far.
type modelRun struct {
	t       *testing.T
	rng     *rand.Rand
	cfg     Config
	durable bool
	failAt  int // step that arms the fsync failure (0 = never)

	ref   *refServer
	acked int // ops 1..acked were acknowledged (or recovered) and applied to ref
	// pending is the op a fail-stop answered 503 after sequencing it: it
	// may or may not survive the crash.
	pending *Op

	srv     *Server
	h       http.Handler
	audit   *bytes.Buffer
	failing *atomic.Bool
	clock   float64
}

func newModelRun(t *testing.T, seed int64) *modelRun {
	rng := rand.New(rand.NewSource(seed))
	r := &modelRun{t: t, rng: rng}
	r.cfg = Config{
		Policy:         []string{"librarisk", "libra", "edf"}[rng.Intn(3)],
		Nodes:          8,
		RequestTimeout: time.Minute,
	}
	// A discarded draw: it keeps each seed's script, and so any failure
	// report that names a seed, stable.
	_ = rng.Intn(3)
	r.cfg.Spans = rng.Intn(2) == 0
	r.durable = rng.Intn(2) == 0
	if r.durable {
		r.cfg.WALDir = filepath.Join(t.TempDir(), "wal")
		if rng.Intn(2) == 0 {
			r.failAt = 1 + rng.Intn(25)
		}
	} else {
		r.cfg.CheckpointPath = filepath.Join(t.TempDir(), "drain.ckpt")
	}
	t.Logf("policy=%s spans=%v durable=%v failAt=%d",
		r.cfg.Policy, r.cfg.Spans, r.durable, r.failAt)
	r.ref = newRefServer(t, r.cfg)
	r.start(false)
	return r
}

// start boots a server incarnation over the current config; with resume
// it checks what recovery rebuilt against the reference.
func (r *modelRun) start(resume bool) {
	t := r.t
	cfg := r.cfg
	cfg.Resume = resume
	r.audit = new(bytes.Buffer)
	cfg.Audit = r.audit
	failing := new(atomic.Bool)
	r.failing = failing
	if r.durable {
		cfg.WALFS = &wal.FaultFS{OnSync: func(name string) error {
			if failing.Load() && strings.HasSuffix(name, ".wal") {
				return syscall.EIO
			}
			return nil
		}}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New (resume=%v): %v", resume, err)
	}
	r.srv, r.h = s, s.Handler()
	if !resume {
		return
	}
	k := s.OpsApplied()
	maxK := r.acked
	if r.pending != nil {
		maxK++
	}
	if k < r.acked || k > maxK {
		t.Fatalf("recovered %d ops, want %d..%d (acknowledged ops lost or unsequenced ops invented)", k, r.acked, maxK)
	}
	if k > r.acked {
		r.ref.apply(t, *r.pending)
		r.acked++
	}
	r.pending = nil
	r.checkQuiescent("resume")
}

// checkQuiescent compares the idle server's audit and /state with the
// reference over the acknowledged ops.
func (r *modelRun) checkQuiescent(when string) {
	t := r.t
	r.srv.mu.RLock()
	got := append([]byte(nil), r.audit.Bytes()...)
	r.srv.mu.RUnlock()
	if want := r.ref.auditOf(r.acked); !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		i := 0
		for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
			i++
		}
		line := func(ls [][]byte) []byte {
			if i < len(ls) {
				return ls[i]
			}
			return []byte("<end of stream>")
		}
		t.Fatalf("%s: audit after %d ops diverges from the reference at line %d:\n--- server\n%s\n--- reference\n%s",
			when, r.acked, i+1, line(g), line(w))
	}
	if r.pending != nil {
		return // a fail-stopped server still holds the indeterminate op in memory
	}
	var st StateResponse
	if code, body := r.call(http.MethodGet, "/state", nil); code != http.StatusOK {
		t.Fatalf("%s: /state %d", when, code)
	} else if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.OpsApplied != r.acked || st.Admitted != r.ref.admitted || st.Rejected != r.ref.rejected {
		t.Fatalf("%s: /state ops/admitted/rejected = %d/%d/%d, reference %d/%d/%d", when,
			st.OpsApplied, st.Admitted, st.Rejected, r.acked, r.ref.admitted, r.ref.rejected)
	}
}

func (r *modelRun) call(method, path string, body any) (int, []byte) {
	var b []byte
	if body != nil {
		b, _ = json.Marshal(body)
	}
	rr := httptest.NewRecorder()
	r.h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(b)))
	return rr.Code, rr.Body.Bytes()
}

// reqTime draws a request time: mostly ahead of the clock, sometimes
// stale (the server clamps it), sometimes absent (the frozen wall clock
// supplies 0).
func (r *modelRun) reqTime() *float64 {
	switch x := r.rng.Intn(10); {
	case x == 0:
		return nil
	case x == 1:
		v := r.clock * r.rng.Float64()
		return &v
	default:
		r.clock += float64(r.rng.Intn(40))
		v := r.clock
		return &v
	}
}

func (r *modelRun) admitReq() AdmitRequest {
	rt := float64(10 + r.rng.Intn(190))
	return AdmitRequest{
		Tenant:   fmt.Sprintf("t%d", r.rng.Intn(3)),
		NumProc:  1 + r.rng.Intn(1+r.rng.Intn(r.cfg.Nodes)),
		Runtime:  rt,
		Estimate: rt * (0.5 + r.rng.Float64()),
		Deadline: rt * (1 + 2*r.rng.Float64()),
		Class:    []string{"high", "low"}[r.rng.Intn(2)],
		T:        r.reqTime(),
	}
}

// opOf is the op the server sequences for an admit request.
func (r *modelRun) opOf(req AdmitRequest, seq int) Op {
	op, _, _, err := validateAdmit(&req)
	if err != nil {
		r.t.Fatalf("script drew an invalid request %+v: %v", req, err)
	}
	op.Seq = seq
	if req.T != nil {
		op.T = *req.T
	}
	return op
}

func (r *modelRun) play(steps int) {
	for step := 1; step <= steps; step++ {
		if step == r.failAt {
			r.failStop()
			continue
		}
		switch x := r.rng.Intn(10); {
		case x < 6:
			r.burst(1 + r.rng.Intn(6))
		case x < 8:
			r.nodeOp()
		case r.durable && r.rng.Intn(2) == 0:
			r.crash()
		default:
			r.drain()
		}
	}
	r.checkQuiescent("end")
	if err := r.srv.Close(); err != nil {
		r.t.Fatalf("final drain: %v", err)
	}
}

// burst sends n admits concurrently. For n > 1 the state lock is held
// until they are all queued, so the worker meets them as one backlog.
func (r *modelRun) burst(n int) {
	t := r.t
	reqs := make([]AdmitRequest, n)
	for i := range reqs {
		reqs[i] = r.admitReq()
	}
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	if n > 1 {
		r.srv.mu.Lock()
	}
	before := r.srv.cRequests.v.Load()
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = r.call(http.MethodPost, "/admit", reqs[i])
		}(i)
	}
	if n > 1 {
		func() {
			defer r.srv.mu.Unlock()
			waitFor(t, func() bool { return r.srv.cRequests.v.Load() == before+uint64(n) })
			// Let the handlers reach the queue. One that arrives late only
			// makes a smaller backlog, never a wrong answer.
			time.Sleep(2 * time.Millisecond)
		}()
	}
	wg.Wait()
	resps := make([]AdmitResponse, n)
	order := make([]int, n)
	for i := range reqs {
		if codes[i] != http.StatusOK {
			t.Fatalf("admit %+v: status %d: %s", reqs[i], codes[i], bodies[i])
		}
		if err := json.Unmarshal(bodies[i], &resps[i]); err != nil {
			t.Fatal(err)
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return resps[order[a]].Job < resps[order[b]].Job })
	for _, i := range order {
		r.ackedAdmit(reqs[i], resps[i])
	}
}

// ackedAdmit applies an acknowledged admit to the reference as the next
// op and checks the server's answer against it.
func (r *modelRun) ackedAdmit(req AdmitRequest, resp AdmitResponse) {
	seq := r.acked + 1
	if resp.Job != seq {
		r.t.Fatalf("answered job %d, want the next sequence %d", resp.Job, seq)
	}
	want := r.ref.apply(r.t, r.opOf(req, seq))
	r.acked++
	if resp.T != want.T || resp.Accepted != want.Accepted || resp.Reason != want.Reason {
		r.t.Fatalf("job %d: server t=%g accepted=%v %q, reference t=%g accepted=%v %q",
			seq, resp.T, resp.Accepted, resp.Reason, want.T, want.Accepted, want.Reason)
	}
}

func (r *modelRun) nodeOp() {
	t := r.t
	req := NodeRequest{Node: r.rng.Intn(r.cfg.Nodes), Down: r.rng.Intn(2) == 0, T: r.reqTime()}
	code, body := r.call(http.MethodPost, "/node", req)
	if code != http.StatusOK {
		t.Fatalf("node %+v: status %d: %s", req, code, body)
	}
	var resp NodeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	op := Op{Seq: r.acked + 1, Kind: "node", Node: req.Node, Down: req.Down}
	if req.T != nil {
		op.T = *req.T
	}
	want := r.ref.apply(t, op)
	r.acked++
	if resp.T != want.T || resp.Killed != want.Killed {
		t.Fatalf("node op %d: server t=%g killed %d, reference t=%g killed %d", op.Seq, resp.T, resp.Killed, want.T, want.Killed)
	}
}

// failStop makes every later fsync of the live log fail, sends admits
// one at a time until one is refused as a durability failure, checks the
// next one is refused without being sequenced, then crashes.
func (r *modelRun) failStop() {
	t := r.t
	r.failing.Store(true)
	for r.pending == nil {
		req := r.admitReq()
		code, body := r.call(http.MethodPost, "/admit", req)
		switch {
		case code == http.StatusOK:
			var resp AdmitResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			r.ackedAdmit(req, resp)
		case code == http.StatusServiceUnavailable && bytes.Contains(body, []byte("durability failure")):
			op := r.opOf(req, r.acked+1)
			r.pending = &op
		default:
			t.Fatalf("admit with failing fsync: status %d: %s", code, body)
		}
	}
	if code, body := r.call(http.MethodPost, "/admit", r.admitReq()); code != http.StatusServiceUnavailable {
		t.Fatalf("admit after fail-stop: status %d: %s", code, body)
	}
	r.crash()
}

// crash copies the live WAL directory — the disk image a SIGKILL would
// leave — and resumes a fresh server from the copy.
func (r *modelRun) crash() {
	r.checkQuiescent("before crash")
	dir := filepath.Join(r.t.TempDir(), "wal")
	copyDir(r.t, r.cfg.WALDir, dir)
	_ = r.srv.Close() // a fail-stopped server reports its latched error
	r.cfg.WALDir = dir
	r.start(true)
}

// drain stops the server gracefully and resumes over what it persisted.
func (r *modelRun) drain() {
	r.checkQuiescent("before drain")
	if err := r.srv.Close(); err != nil {
		r.t.Fatalf("drain: %v", err)
	}
	r.start(true)
}
