package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testConfig is a small deterministic server: frozen wall mapping, four
// nodes, no quotas, no shedding surprises (fills left at defaults but
// the queue is deep relative to test load).
func testConfig() Config {
	return Config{
		Policy:    "librarisk",
		Nodes:     4,
		TimeScale: 0,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, hts
}

// postJSON posts body to url and decodes the response into out,
// returning the raw response for header/status checks.
func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func admitAt(t *testing.T, base string, at float64, req AdmitRequest) (AdmitResponse, *http.Response) {
	t.Helper()
	req.T = &at
	var out AdmitResponse
	resp := postJSON(t, base+"/admit", req, &out)
	return out, resp
}

func TestAdmitAcceptAndReject(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	// A spanning job occupies all four nodes. A short urgent job then has
	// no empty node, and on every occupied node the predicted deadline
	// delays diverge (the spanning job would be pushed late while the
	// candidate still misses), so LibraRisk's zero-risk rule refuses it.
	out, resp := admitAt(t, hts.URL, 0, AdmitRequest{
		Tenant: "t0", NumProc: 4, Runtime: 100, Deadline: 120,
	})
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("spanning job: status %d accepted %v (%s)", resp.StatusCode, out.Accepted, out.Reason)
	}
	out, resp = admitAt(t, hts.URL, 0, AdmitRequest{
		Tenant: "t0", NumProc: 1, Runtime: 30, Deadline: 40,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("urgent job: status %d, want 200", resp.StatusCode)
	}
	if out.Accepted {
		t.Fatal("urgent job accepted against a fully risky cluster")
	}
	if out.Reason == "" {
		t.Errorf("rejection carried no reason")
	}
	if out.RetryAfterS <= 0 {
		t.Errorf("rejection carried no retry_after_s hint: %+v", out)
	}
}

func TestAdmitAdvancesVirtualTimeAndFreesCapacity(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	if out, _ := admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 4, Runtime: 100, Deadline: 120}); !out.Accepted {
		t.Fatalf("spanning job rejected: %s", out.Reason)
	}
	// At t=0 every node carries the spanning job's risk; by t=200 it has
	// completed and the same request is admissible again.
	if out, _ := admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 30, Deadline: 40}); out.Accepted {
		t.Fatal("urgent job at t=0 accepted on a fully risky cluster")
	}
	out, _ := admitAt(t, hts.URL, 200, AdmitRequest{NumProc: 1, Runtime: 30, Deadline: 40})
	if !out.Accepted {
		t.Fatalf("job at t=200 rejected after completions: %s", out.Reason)
	}
	if out.T != 200 {
		t.Errorf("applied at t=%g, want 200", out.T)
	}
}

func TestAdmitTimeNeverRunsBackwards(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	if out, _ := admitAt(t, hts.URL, 100, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 50}); out.T != 100 {
		t.Fatalf("first op applied at t=%g, want 100", out.T)
	}
	// An earlier-stamped request is clamped to the current clock, not
	// applied in the past.
	out, _ := admitAt(t, hts.URL, 5, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 50})
	if out.T != 100 {
		t.Fatalf("stale-stamped op applied at t=%g, want clamp to 100", out.T)
	}
}

func TestAdmitValidation(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	bad := []AdmitRequest{
		{NumProc: 0, Runtime: 10, Deadline: 50},               // no processors
		{NumProc: 1, Runtime: 0, Deadline: 50},                // no runtime
		{NumProc: 1, Runtime: 10, Deadline: 0},                // no deadline
		{NumProc: 1, Runtime: 10, Deadline: 50, Class: "mid"}, // unknown class
	}
	for i, req := range bad {
		resp := postJSON(t, hts.URL+"/admit", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	neg := -1.0
	req := AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 50, T: &neg}
	if resp := postJSON(t, hts.URL+"/admit", req, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative t: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(hts.URL+"/admit", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestNodeKillAndRepair(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	if out, _ := admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 4, Runtime: 100, Deadline: 300}); !out.Accepted {
		t.Fatalf("spanning job rejected: %s", out.Reason)
	}
	var nr NodeResponse
	resp := postJSON(t, hts.URL+"/node", NodeRequest{Node: 0, Down: true}, &nr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node kill: status %d", resp.StatusCode)
	}
	if nr.Killed != 1 {
		t.Errorf("killing node 0 tore down %d jobs, want 1", nr.Killed)
	}
	var st StateResponse
	if resp := getJSON(t, hts.URL+"/state", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("/state: %d", resp.StatusCode)
	}
	if st.NodesUp != 3 {
		t.Errorf("nodes_up = %d after kill, want 3", st.NodesUp)
	}
	postJSON(t, hts.URL+"/node", NodeRequest{Node: 0, Down: false}, &nr)
	getJSON(t, hts.URL+"/state", &st)
	if st.NodesUp != 4 {
		t.Errorf("nodes_up = %d after repair, want 4", st.NodesUp)
	}
	if resp := postJSON(t, hts.URL+"/node", NodeRequest{Node: 99, Down: true}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range node: status %d, want 400", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	cfg := testConfig()
	cfg.QuotaRate = 0
	cfg.QuotaBurst = 2
	s, hts := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		admitAt(t, hts.URL, 0, AdmitRequest{Tenant: "a", NumProc: 1, Runtime: 10, Deadline: 50})
	}
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"serve_requests_total 3",
		"serve_admitted_total 2",
		"serve_quota_denied_total 1",
		"serve_admission_latency_seconds_count 2",
		"serve_nodes_total 4",
		"serve_quota_tenants 1",
		"serve_shed_level 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Process health is read from the runtime at scrape time: a running
	// server has a non-empty heap and at least its apply worker and this
	// test's goroutine. The GC count may still be zero.
	for _, series := range []struct {
		name string
		min  float64
	}{
		{"serve_heap_inuse_bytes", 1},
		{"serve_gc_cycles_total", 0},
		{"serve_goroutines", 2},
	} {
		v, ok := metricValue(body, series.name)
		if !ok {
			t.Errorf("/metrics missing %s", series.name)
		} else if v < series.min {
			t.Errorf("%s = %v, want at least %v", series.name, v, series.min)
		}
	}
	_ = s
}

// metricValue returns the value of an unlabelled series in a Prometheus
// text exposition.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestNewRejectsInvalidConfig: every value New cannot serve is an
// error, never a panic or a silently misbehaving server.
func TestNewRejectsInvalidConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"QueueDepth", func(c *Config) { c.QueueDepth = -1 }},
		{"Nodes", func(c *Config) { c.Nodes = -1 }},
		{"Rating/negative", func(c *Config) { c.Rating = -1 }},
		{"Rating/NaN", func(c *Config) { c.Rating = nan }},
		{"Rating/+Inf", func(c *Config) { c.Rating = inf }},
		{"Rating/-Inf", func(c *Config) { c.Rating = -inf }},
		{"TimeScale/NaN", func(c *Config) { c.TimeScale = nan }},
		{"SigmaThreshold/negative", func(c *Config) { c.SigmaThreshold = -0.1 }},
		{"SigmaThreshold/NaN", func(c *Config) { c.SigmaThreshold = nan }},
		{"QuotaRate/negative", func(c *Config) { c.QuotaRate = -1 }},
		{"QuotaRate/NaN", func(c *Config) { c.QuotaRate = nan }},
		{"QuotaBurst/negative", func(c *Config) { c.QuotaBurst = -1 }},
		{"QuotaBurst/NaN", func(c *Config) { c.QuotaBurst = nan }},
		{"RequestTimeout", func(c *Config) { c.RequestTimeout = -time.Second }},
		{"SpanBuffer", func(c *Config) { c.SpanBuffer = -1 }},
		{"TenantLabels", func(c *Config) { c.TenantLabels = -1 }},
		{"WALSegmentBytes", func(c *Config) { c.WALSegmentBytes = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			s, err := New(cfg)
			if err == nil {
				s.Close()
				t.Fatal("New accepted the config")
			}
			if !strings.HasPrefix(err.Error(), "serve: invalid ") {
				t.Errorf("error %q, want the serve: invalid … form", err)
			}
		})
	}
}

// TestSameInstantCompletionWave pins a tie wave on the advance path:
// four identical 16-processor jobs at t=0 share every node of a 16-node
// cluster and finish together — 64 slice completions at exactly t=120.
// The op at t=150 must fire the whole wave before deciding and so find
// an empty cluster.
func TestSameInstantCompletionWave(t *testing.T) {
	_, hts := newTestServer(t, scriptConfig())
	for i := 0; i < 4; i++ {
		out, resp := admitAt(t, hts.URL, 0, AdmitRequest{
			Tenant: "tie", NumProc: 16, Runtime: 30, Deadline: 200,
		})
		if resp.StatusCode != http.StatusOK || !out.Accepted {
			t.Fatalf("job %d at t=0: status %d accepted=%v %s", i, resp.StatusCode, out.Accepted, out.Reason)
		}
	}
	out, resp := admitAt(t, hts.URL, 150, AdmitRequest{
		Tenant: "tie", NumProc: 16, Runtime: 40, Deadline: 100,
	})
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("job at t=150 after the tie wave: status %d accepted=%v %s", resp.StatusCode, out.Accepted, out.Reason)
	}
	if st := stateOf(t, hts.URL); st.Admitted != 5 || st.Rejected != 0 {
		t.Fatalf("state after the tie wave: %+v, want 5 admitted and none rejected", st)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	h := s.recovering(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/admit", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rr.Code)
	}
	if s.cPanics.v.Load() != 1 {
		t.Errorf("panic counter = %d, want 1", s.cPanics.v.Load())
	}
}

func TestWorkerTimeoutExpiresQueuedRequest(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := &pending{
		op:       Op{NumProc: 1, Runtime: 10, Estimate: 10, Deadline: 50},
		deadline: time.Now().Add(-time.Second), // already expired
		resp:     make(chan applied, 1),
	}
	if _, ok := s.decideBatch([]*pending{p}, nil); ok {
		t.Fatal("expired request left a batch to acknowledge")
	}
	a := <-p.resp
	if !a.timedOut {
		t.Fatalf("expired request was applied anyway: %+v", a)
	}
	if got := s.OpsApplied(); got != 0 {
		t.Errorf("expired request touched cluster state: %d ops applied", got)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New(Config{Policy: "fifo"}); err == nil {
		t.Fatal("New accepted unknown policy")
	}
}

func TestEDFPolicyServes(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = "edf"
	_, hts := newTestServer(t, cfg)
	out, resp := admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 50})
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("EDF admit: status %d accepted %v", resp.StatusCode, out.Accepted)
	}
	var st StateResponse
	getJSON(t, hts.URL+"/state", &st)
	if st.Policy == "" {
		t.Error("state carries no policy name")
	}
}

func TestRetryAfterDerivation(t *testing.T) {
	cfg := testConfig()
	cfg.TimeScale = 60 // one wall second = one virtual minute
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Next completion 120 virtual seconds out → 2 wall seconds.
	s.storeClocks(0, 120)
	if got := s.retryAfter(); got != 2*time.Second {
		t.Errorf("retryAfter = %v, want 2s", got)
	}
	// No pending completion → floor of one second.
	s.storeClocks(0, math.NaN())
	if got := s.retryAfter(); got != time.Second {
		t.Errorf("retryAfter with no completions = %v, want 1s", got)
	}
	// Enormous gap clamps to an hour.
	s.storeClocks(0, 1e9)
	if got := s.retryAfter(); got != time.Hour {
		t.Errorf("retryAfter clamp = %v, want 1h", got)
	}
}

func TestStateSnapshotConsistentUnderLoad(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			admitAt(t, hts.URL, float64(i), AdmitRequest{NumProc: 1, Runtime: 5, Deadline: 30})
		}
	}()
	for i := 0; i < 20; i++ {
		var st StateResponse
		if resp := getJSON(t, hts.URL+"/state", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("/state under load: %d", resp.StatusCode)
		}
		if st.NodesUp > st.Nodes || st.Running < 0 {
			t.Fatalf("inconsistent snapshot: %+v", st)
		}
	}
	<-done
}

func TestConcurrentAdmitsAllDecided(t *testing.T) {
	_, hts := newTestServer(t, testConfig())
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			b, _ := json.Marshal(AdmitRequest{Tenant: fmt.Sprintf("t%d", i%7), NumProc: 1, Runtime: 10, Deadline: 100})
			resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusServiceUnavailable:
				errs <- nil
			default:
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
