package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clustersched/internal/obs/span"
)

// TestSpansByteIdentityDifferential: tracing is a read-only tap, so the
// same request script with spans on must produce decisions, an audit
// stream, and a /state snapshot byte-identical to spans off — across
// the plain and durable-pipelined execution shapes.
func TestSpansByteIdentityDifferential(t *testing.T) {
	type shape struct {
		name string
		wal  bool
	}
	shapes := []shape{
		{"plain", false},
		{"durable", true},
	}
	root := t.TempDir()
	run := func(sh shape, spans bool) ([]string, []byte, StateResponse) {
		var audit bytes.Buffer
		cfg := scriptConfig()
		cfg.Audit = &audit
		cfg.Spans = spans
		if sh.wal {
			cfg.WALDir = filepath.Join(root, fmt.Sprintf("%s-spans-%v", sh.name, spans))
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s spans=%v: New: %v", sh.name, spans, err)
		}
		hts := httptest.NewServer(s.Handler())
		lines := playScript(t, hts.URL, 0, scriptLen)
		st := stateOf(t, hts.URL)
		hts.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("%s spans=%v: Close: %v", sh.name, spans, err)
		}
		return lines, audit.Bytes(), st
	}
	for _, sh := range shapes {
		offLines, offAudit, offState := run(sh, false)
		onLines, onAudit, onState := run(sh, true)
		if len(offAudit) == 0 {
			t.Fatalf("%s: reference run produced no audit output", sh.name)
		}
		for i := range offLines {
			if onLines[i] != offLines[i] {
				t.Fatalf("%s: decision %d diverges with spans on: %q vs %q", sh.name, i, onLines[i], offLines[i])
			}
		}
		if !bytes.Equal(onAudit, offAudit) {
			t.Errorf("%s: audit stream diverges with spans on (%d vs %d bytes)", sh.name, len(onAudit), len(offAudit))
		}
		if onState != offState {
			t.Errorf("%s: state diverges with spans on\non  %+v\noff %+v", sh.name, onState, offState)
		}
	}

	// The WALs written with spans on and off must be byte-identical,
	// and replaying the spans-on log with spans off (and vice versa)
	// must rebuild the same audit stream: tracing must not leak into
	// what is persisted.
	walBytes := func(dir string) []byte {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		var all []byte
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	offDir := filepath.Join(root, "durable-spans-false")
	onDir := filepath.Join(root, "durable-spans-true")
	if !bytes.Equal(walBytes(offDir), walBytes(onDir)) {
		t.Error("WAL bytes diverge between spans on and off")
	}
	for _, rc := range []struct {
		name  string
		dir   string
		spans bool
	}{
		{"spans-on log, spans-off replay", onDir, false},
		{"spans-off log, spans-on replay", offDir, true},
	} {
		var replayAudit bytes.Buffer
		cfg := scriptConfig()
		cfg.Audit = &replayAudit
		cfg.WALDir = rc.dir
		cfg.Resume = true
		cfg.Spans = rc.spans
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		ops := s.OpsApplied()
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", rc.name, err)
		}
		if ops != scriptLen {
			t.Errorf("%s: replayed %d ops, want %d", rc.name, ops, scriptLen)
		}
	}
}

// TestSpansCheckpointByteIdentity drains two identically driven servers
// — spans on and off — to checkpoint files and compares the bytes.
func TestSpansCheckpointByteIdentity(t *testing.T) {
	root := t.TempDir()
	run := func(spans bool) []byte {
		path := filepath.Join(root, fmt.Sprintf("ckpt-%v", spans))
		cfg := scriptConfig()
		cfg.CheckpointPath = path
		cfg.Spans = spans
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("spans=%v: New: %v", spans, err)
		}
		hts := httptest.NewServer(s.Handler())
		playScript(t, hts.URL, 0, 30)
		hts.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("spans=%v: Close: %v", spans, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	off := run(false)
	on := run(true)
	if len(off) == 0 {
		t.Fatal("empty checkpoint")
	}
	if !bytes.Equal(on, off) {
		t.Errorf("checkpoint bytes diverge with spans on (%d vs %d bytes)", len(on), len(off))
	}
}

// TestDebugSpansUnderConcurrentLoad floods a spans-on server from many
// goroutines while concurrently scraping /debug/spans, with a ring
// small enough to wrap several times. Run under -race this doubles as
// the recorder's publication-safety check at the serving layer.
func TestDebugSpansUnderConcurrentLoad(t *testing.T) {
	cfg := testConfig()
	cfg.Spans = true
	cfg.SpanBuffer = 64
	cfg.QueueDepth = 1024
	s, hts := newTestServer(t, cfg)

	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper (errors checked by the final scrape)
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := http.Get(hts.URL + "/debug/spans?n=32"); err == nil {
				resp.Body.Close()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b, _ := json.Marshal(AdmitRequest{
					Tenant: fmt.Sprintf("t%d", w%3), NumProc: 1, Runtime: 5, Deadline: 1e9,
				})
				resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	// Let the writers finish, then stop the scraper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	defer close(stop)

	waitFor(t, func() bool { return s.spans.Recorded() >= writers*perWriter })
	var p span.Payload
	getJSON(t, hts.URL+"/debug/spans", &p)
	if !p.Enabled {
		t.Fatal("payload says spans disabled")
	}
	if p.Recorded < writers*perWriter {
		t.Errorf("recorded %d spans, want ≥ %d", p.Recorded, writers*perWriter)
	}
	if p.Count > s.spans.Cap() {
		t.Errorf("ring holds %d spans, cap %d", p.Count, s.spans.Cap())
	}
	if p.Recorded <= uint64(s.spans.Cap()) {
		t.Errorf("recorded %d ≤ cap %d: ring never wrapped", p.Recorded, s.spans.Cap())
	}
	if len(p.Spans) == 0 || len(p.SlowestTotal) == 0 {
		t.Fatalf("payload missing spans: recent=%d slowest=%d", len(p.Spans), len(p.SlowestTotal))
	}
	for _, sp := range p.Spans {
		if sp.Kind != "admit" || sp.TotalSec < 0 {
			t.Fatalf("bad span on wire: %+v", sp)
		}
	}
	if len(p.SlowestByStage["queue"]) == 0 {
		t.Error("slowest-by-stage has no queue entries after a flood")
	}
}

// TestDebugEndpointsAliveAtShedLevelThree wedges the apply worker with
// the state lock held and a saturated queue — shed level 3, every
// admit refused — and checks the whole diagnostic surface still
// answers: that is the moment it exists for.
func TestDebugEndpointsAliveAtShedLevelThree(t *testing.T) {
	cfg := testConfig()
	cfg.Spans = true
	// Three queued requests fill the queue, so the wedge below — one
	// request in the blocked worker, three more queued — lands the
	// ladder at the top.
	cfg.QueueDepth = 3
	cfg.RequestTimeout = time.Minute
	s, hts := newTestServer(t, cfg)

	s.mu.Lock()
	unlock := sync.OnceFunc(s.mu.Unlock)
	defer unlock() // a t.Fatal while wedged must still release the worker
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100, Class: "high"})
			resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, func() bool { return len(s.queue) >= 3 })

	// Confirm we are actually at level 3: a fresh admit is refused.
	b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
	resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
	if err != nil {
		unlock()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		unlock()
		t.Fatalf("admit at level 3: status %d, want 503", resp.StatusCode)
	}

	// The lock-free diagnostic surface. /metrics is deliberately absent:
	// its scrape syncs the registry under the state lock, so it rides
	// out shed level 3 but not a wedged apply worker.
	for _, path := range []string{
		"/debug/spans",
		"/debug/requests?tenant=nobody",
		"/debug/shed",
		"/debug/pprof/",
		"/healthz",
	} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			unlock()
			t.Fatalf("GET %s while wedged: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			unlock()
			t.Fatalf("GET %s while wedged: status %d, want 200", path, resp.StatusCode)
		}
	}

	var shedState struct {
		Level int             `json:"level"`
		Total uint64          `json:"transitions_total"`
		Trans json.RawMessage `json:"transitions"`
	}
	getJSON(t, hts.URL+"/debug/shed", &shedState)
	if shedState.Level != shedAll {
		unlock()
		t.Fatalf("/debug/shed level = %d, want %d", shedState.Level, shedAll)
	}
	if shedState.Total == 0 {
		unlock()
		t.Fatal("/debug/shed reports zero transitions after an escalation")
	}
	unlock()
	wg.Wait()

	// Unwedged, /metrics answers too — and shows the shed level and the
	// transition counter the wedge drove.
	resp, err = http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte("serve_shed_level")) ||
		!bytes.Contains(buf.Bytes(), []byte("serve_shed_transitions_total")) {
		t.Errorf("/metrics missing shed gauges:\n%s", buf.String())
	}

	// The refused admit left a shed-all span behind.
	waitFor(t, func() bool {
		for _, sp := range s.spans.Snapshot() {
			if sp.Outcome == "shed-all" {
				return true
			}
		}
		return false
	})
}

// TestDebugRequestsFiltering checks tenant and outcome filters.
func TestDebugRequestsFiltering(t *testing.T) {
	cfg := testConfig()
	cfg.Spans = true
	_, hts := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		admitAt(t, hts.URL, float64(i), AdmitRequest{Tenant: "acme", NumProc: 1, Runtime: 5, Deadline: 1e9})
	}
	admitAt(t, hts.URL, 3, AdmitRequest{Tenant: "zeta", NumProc: 1, Runtime: 5, Deadline: 1e9})

	var out struct {
		Enabled bool        `json:"enabled"`
		Count   int         `json:"count"`
		Spans   []span.JSON `json:"spans"`
	}
	getJSON(t, hts.URL+"/debug/requests?tenant=acme", &out)
	if !out.Enabled || out.Count != 3 {
		t.Fatalf("tenant filter: enabled=%v count=%d, want 3", out.Enabled, out.Count)
	}
	for _, sp := range out.Spans {
		if sp.Tenant != "acme" {
			t.Errorf("tenant filter leaked span for %q", sp.Tenant)
		}
	}
	getJSON(t, hts.URL+"/debug/requests?tenant=acme&outcome=nope", &out)
	if out.Count != 0 {
		t.Errorf("outcome filter: count %d, want 0", out.Count)
	}
}

// TestTenantMetricsCardinalityCap posts traffic for more tenants than
// TenantLabels allows and checks the overflow folds into the "other"
// series while the labeled series stay exact.
func TestTenantMetricsCardinalityCap(t *testing.T) {
	cfg := testConfig()
	cfg.TenantLabels = 2
	cfg.QuotaBurst = 2 // fixed budget: exactly two admits per tenant, then 429
	_, hts := newTestServer(t, cfg)

	at := 0.0
	post := func(tenant string) int {
		b, _ := json.Marshal(AdmitRequest{Tenant: tenant, NumProc: 1, Runtime: 5, Deadline: 1e9, T: &at})
		// Space arrivals past the runtime so the four-node cluster is
		// always empty and every in-quota admit is accepted.
		at += 10
		resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Two named tenants fill the label table; the third folds into
	// "other". Each tenant's third request burns through its quota
	// burst of 2 and is 429ed.
	for _, tenant := range []string{"alpha", "beta", "gamma"} {
		for i := 0; i < 3; i++ {
			st := post(tenant)
			if i < 2 && st != http.StatusOK {
				t.Fatalf("tenant %s request %d: status %d, want 200", tenant, i, st)
			}
			if i == 2 && st != http.StatusTooManyRequests {
				t.Fatalf("tenant %s request %d: status %d, want 429", tenant, i, st)
			}
		}
	}

	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		`serve_tenant_admits_total{tenant="alpha"} 2`,
		`serve_tenant_admits_total{tenant="beta"} 2`,
		`serve_tenant_admits_total{tenant="other"} 2`,
		`serve_tenant_quota_denials_total{tenant="alpha"} 1`,
		`serve_tenant_quota_denials_total{tenant="other"} 1`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte(`tenant="gamma"`)) {
		t.Errorf("/metrics leaked an uncapped tenant label:\n%s", body)
	}
}

// TestSpanStageCoverage drives a deterministic script through both the
// plain and durable pipelines and checks the acceptance bar: the named
// stages account for ≥ 95%% of every traced request's wall time.
func TestSpanStageCoverage(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "plain"
		cfg := scriptConfig()
		cfg.Spans = true
		if durable {
			name = "durable"
			cfg.WALDir = t.TempDir()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		hts := httptest.NewServer(s.Handler())
		playScript(t, hts.URL, 0, 30)
		spans := s.spans.Snapshot()
		hts.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if len(spans) < 25 {
			t.Fatalf("%s: only %d spans recorded", name, len(spans))
		}
		var total, covered time.Duration
		for _, sp := range spans {
			if sp.Total <= 0 {
				t.Fatalf("%s: span %d has non-positive total %v", name, sp.Seq, sp.Total)
			}
			var sum time.Duration
			for _, d := range sp.Dur {
				sum += d
			}
			total += sp.Total
			covered += sum
			if sum > sp.Total+sp.Total/20 {
				t.Errorf("%s: span %d stages sum %v exceed total %v by >5%%", name, sp.Seq, sum, sp.Total)
			}
		}
		if frac := float64(covered) / float64(total); frac < 0.95 {
			t.Errorf("%s: stages attribute %.1f%% of traced wall time, want ≥ 95%%", name, frac*100)
		}
		if durable {
			var withWAL, withCommit int
			for _, sp := range spans {
				if sp.WALIndex > 0 {
					withWAL++
				}
				if sp.Dur[span.StageCommit] > 0 {
					withCommit++
				}
			}
			if withWAL == 0 || withCommit == 0 {
				t.Errorf("durable spans missing pipeline detail: wal_index on %d, commit stage on %d", withWAL, withCommit)
			}
		}
	}
}

// TestSpanHelpersZeroAllocWhenDisabled proves the spans-off hot path
// pays only nil checks: every span helper the handler and workers call
// must allocate nothing when tracing is disabled.
func TestSpanHelpersZeroAllocWhenDisabled(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.spans != nil || s.stages != nil {
		t.Fatal("spans unexpectedly enabled")
	}
	p := &pending{}
	t0 := time.Now()
	// Warm the tenant cell so the steady-state path is measured.
	s.tenants.admit("t0", true)
	allocs := testing.AllocsPerRun(200, func() {
		sp := s.beginSpan("admit", "t0", t0, 0)
		s.recordRefused(sp, "quota")
		p.sp = sp
		s.markDequeued(p)
		s.finishSpan(p, applied{}, "accepted")
		s.tenants.admit("t0", true)
		s.stages.drainTo(nil)
	})
	if allocs != 0 {
		t.Errorf("spans-off helpers allocate %.1f per op, want 0", allocs)
	}
}
