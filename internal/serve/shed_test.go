package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestShedLadderByQueueFill(t *testing.T) {
	cases := []struct {
		qlen, qcap int
		want       int
	}{
		{0, 100, shedNone},
		{49, 100, shedNone},
		{50, 100, shedAudit},
		{74, 100, shedAudit},
		{75, 100, shedClass},
		{94, 100, shedClass},
		{95, 100, shedAll},
		{100, 100, shedAll},
	}
	for _, tc := range cases {
		if got := fillLevel(tc.qlen, tc.qcap); got != tc.want {
			t.Errorf("fillLevel(%d/%d) = %d, want %d", tc.qlen, tc.qcap, got, tc.want)
		}
	}
}

// TestShedClassRefusesSheddableTraffic drives the ladder directly (small
// queue held at level 2 by a blocked worker) and checks the class
// split: low-urgency is shed with 503 + Retry-After while high-urgency
// still queues.
func TestShedClassRefusesSheddableTraffic(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 20
	cfg.RequestTimeout = time.Minute
	s, hts := newTestServer(t, cfg)

	// Hold the state lock so the worker blocks mid-apply and the queue
	// keeps a backlog.
	s.mu.Lock()
	var wg sync.WaitGroup
	post := func(class string) {
		defer wg.Done()
		b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100, Class: class})
		resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
		if err == nil {
			resp.Body.Close()
		}
	}
	// 16 requests leave 15 queued behind the blocked worker, or 16 if it
	// has not dequeued yet: fill 0.75 or 0.8, level 2 either way and
	// below level 3's 0.95, so no high-urgency request is shed.
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go post("high")
	}
	waitFor(t, func() bool { return len(s.queue) >= 15 })

	b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100, Class: "sheddable"})
	resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		s.mu.Unlock()
		t.Fatalf("sheddable class at level 2: status %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		s.mu.Unlock()
		t.Fatalf("shed response Retry-After %q, want integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	s.mu.Unlock()
	wg.Wait()
	if got := s.cShedClass.v.Load(); got != 1 {
		t.Errorf("shed-class counter = %d, want 1", got)
	}
}

// TestOverloadEnvelope floods a small queue and asserts the structural
// contract: every request is answered, every answer is 200 or 503, and
// every 503 carries Retry-After. No timing assertions — the split
// between queue-full, shed and applied depends on scheduling.
func TestOverloadEnvelope(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	_, hts := newTestServer(t, cfg)
	const n = 120
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	missingRA := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(AdmitRequest{NumProc: 1, Runtime: 10, Deadline: 100})
			resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
			if err != nil {
				mu.Lock()
				counts[-1]++
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			counts[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				missingRA++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[-1] > 0 {
		t.Fatalf("%d transport failures", counts[-1])
	}
	for st := range counts {
		if st != http.StatusOK && st != http.StatusServiceUnavailable {
			t.Errorf("unexpected status %d (%d times)", st, counts[st])
		}
	}
	if missingRA > 0 {
		t.Errorf("%d 503s missing Retry-After", missingRA)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Errorf("answered %d of %d requests", total, n)
	}
}

// TestShedTransitionTracking pins the transition telemetry: every level
// change — escalation AND recovery (level-down) — is recorded with a
// timestamp, counted, and written as one log line.
func TestShedTransitionTracking(t *testing.T) {
	now := time.Unix(1000, 0).UTC()
	clock := func() time.Time { return now }
	var log bytes.Buffer
	d := newShedder(&log, clock)

	if got := d.levelTracked(0, 100); got != shedNone {
		t.Fatalf("idle level = %d, want 0", got)
	}
	if _, total := d.transitions(); total != 0 {
		t.Fatalf("idle query recorded %d transitions, want 0", total)
	}
	steps := []struct {
		qlen, want int
	}{
		{96, shedAll},   // 0 -> 3 escalation
		{80, shedClass}, // 3 -> 2 partial recovery
		{0, shedNone},   // 2 -> 0 full recovery (the level-down path)
	}
	for _, st := range steps {
		now = now.Add(time.Second)
		if got := d.levelTracked(st.qlen, 100); got != st.want {
			t.Fatalf("levelTracked(%d/100) = %d, want %d", st.qlen, got, st.want)
		}
	}
	trans, total := d.transitions()
	if total != 3 || len(trans) != 3 {
		t.Fatalf("transitions = %d (ring %d), want 3", total, len(trans))
	}
	wantTrans := []struct{ from, to int }{{0, 3}, {3, 2}, {2, 0}}
	for i, w := range wantTrans {
		tr := trans[i]
		if tr.From != w.from || tr.To != w.to {
			t.Errorf("transition %d: %d -> %d, want %d -> %d", i, tr.From, tr.To, w.from, w.to)
		}
		wantAt := time.Unix(1000+int64(i)+1, 0).UTC()
		if !tr.At.Equal(wantAt) {
			t.Errorf("transition %d at %v, want %v", i, tr.At, wantAt)
		}
	}
	if trans[0].Fill != 0.96 {
		t.Errorf("escalation fill = %g, want 0.96", trans[0].Fill)
	}

	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("log has %d lines, want 3:\n%s", len(lines), log.String())
	}
	wantLog := []string{"level 0 -> 3", "level 3 -> 2", "level 2 -> 0"}
	for i, ln := range lines {
		if !strings.Contains(ln, wantLog[i]) {
			t.Errorf("log line %d = %q, want it to contain %q", i, ln, wantLog[i])
		}
		if !strings.HasPrefix(ln, "shed: ") || !strings.Contains(ln, "T00:") {
			t.Errorf("log line %d = %q, want a timestamped 'shed: <RFC3339> ...' line", i, ln)
		}
	}

	// A steady level records nothing more.
	now = now.Add(time.Second)
	d.levelTracked(0, 100)
	if _, total := d.transitions(); total != 3 {
		t.Errorf("steady level grew the transition count to %d", total)
	}

	// The ring is bounded: flapping forever keeps only the newest 64.
	for i := 0; i < 200; i++ {
		d.levelTracked(96, 100)
		d.levelTracked(0, 100)
	}
	trans, total = d.transitions()
	if len(trans) > 64 {
		t.Errorf("transition ring grew to %d, want ≤ 64", len(trans))
	}
	if total != 3+400 {
		t.Errorf("transition total = %d, want 403", total)
	}
	if last := trans[len(trans)-1]; last.To != shedNone {
		t.Errorf("newest retained transition ends at level %d, want 0", last.To)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
