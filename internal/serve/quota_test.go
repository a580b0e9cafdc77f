package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestQuotaFixedBudget(t *testing.T) {
	now := time.Now()
	q := newQuotaTable(0, 3, func() time.Time { return now })
	for i := 0; i < 3; i++ {
		if ok, _ := q.take("a"); !ok {
			t.Fatalf("take %d refused within budget", i)
		}
	}
	ok, ra := q.take("a")
	if ok {
		t.Fatal("take beyond fixed budget allowed")
	}
	if ra <= 0 {
		t.Errorf("exhausted budget reported retry-after %v", ra)
	}
	// Other tenants are unaffected.
	if ok, _ := q.take("b"); !ok {
		t.Fatal("tenant b refused by tenant a's exhaustion")
	}
	// Time passing does not refill a rate-zero budget.
	now = now.Add(time.Hour)
	if ok, _ := q.take("a"); ok {
		t.Fatal("fixed budget refilled over time")
	}
}

func TestQuotaRefillsAtRate(t *testing.T) {
	now := time.Now()
	q := newQuotaTable(2, 4, func() time.Time { return now }) // 2/s, burst 4
	for i := 0; i < 4; i++ {
		if ok, _ := q.take("a"); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, ra := q.take("a")
	if ok {
		t.Fatal("take beyond burst allowed")
	}
	if ra < time.Second {
		t.Errorf("retry-after %v below the 1s Retry-After grain", ra)
	}
	now = now.Add(time.Second) // 2 tokens back
	for i := 0; i < 2; i++ {
		if ok, _ := q.take("a"); !ok {
			t.Fatalf("refilled take %d refused", i)
		}
	}
	if ok, _ := q.take("a"); ok {
		t.Fatal("take beyond refill allowed")
	}
	// Refill never exceeds the burst.
	now = now.Add(time.Hour)
	granted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := q.take("a"); ok {
			granted++
		}
	}
	if granted != 4 {
		t.Fatalf("after a long idle, %d takes granted, want burst 4", granted)
	}
}

// TestQuotaExactUnderConcurrency is the acceptance pin: a fixed budget
// of 10 admissions hit by 100 concurrent requests for the same tenant
// yields exactly 10 decisions and exactly 90 429s — no over- or
// under-admission under any interleaving.
func TestQuotaExactUnderConcurrency(t *testing.T) {
	cfg := testConfig()
	cfg.QuotaRate = 0
	cfg.QuotaBurst = 10
	// Only the 10 requests the quota lets through can queue, so the fill
	// stays at or below 10/128, under the shed ladder's first level.
	cfg.QueueDepth = 128
	_, hts := newTestServer(t, cfg)

	const n = 100
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(AdmitRequest{Tenant: "hammer", NumProc: 1, Runtime: 10, Deadline: 100})
			resp, err := http.Post(hts.URL+"/admit", "application/json", bytes.NewReader(b))
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					statuses[i] = -2
				}
			}
		}(i)
	}
	wg.Wait()
	counts := map[int]int{}
	for _, st := range statuses {
		counts[st]++
	}
	if counts[-1] > 0 {
		t.Fatalf("%d requests failed at the transport", counts[-1])
	}
	if counts[-2] > 0 {
		t.Fatalf("%d quota denials missing Retry-After", counts[-2])
	}
	if counts[http.StatusOK] != 10 || counts[http.StatusTooManyRequests] != 90 {
		t.Fatalf("status counts %v, want exactly 10×200 and 90×429", counts)
	}
}

func TestQuotaZeroConfigDisablesQuotas(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.quotas != nil {
		t.Fatal("quota table built with no quota configured")
	}
}

// TestQuotaTableStaysBounded pins the sweep: 100 k distinct tenants, each
// taking one token a millisecond apart, leave the table bounded, because
// a bucket refilled to burst is swept out. A swept tenant comes back with
// a full bucket, exactly as if it had been remembered. Rate-0 budgets are
// never swept.
func TestQuotaTableStaysBounded(t *testing.T) {
	now := time.Now()
	q := newQuotaTable(10, 2, func() time.Time { return now }) // 10/s: full again 100 ms after a take
	peak := 0
	for i := 0; i < 100_000; i++ {
		if ok, _ := q.take(fmt.Sprintf("tenant-%d", i)); !ok {
			t.Fatalf("first take of tenant %d refused", i)
		}
		peak = max(peak, q.tenants())
		now = now.Add(time.Millisecond)
	}
	if peak > 2*quotaSweepMin {
		t.Fatalf("table peaked at %d buckets, want at most %d", peak, 2*quotaSweepMin)
	}
	for i := 0; i < 2; i++ {
		if ok, _ := q.take("tenant-0"); !ok {
			t.Fatalf("swept tenant's take %d refused: its bucket must come back full", i)
		}
	}
	if ok, _ := q.take("tenant-0"); ok {
		t.Fatal("swept tenant got more than burst")
	}

	fixed := newQuotaTable(0, 1, func() time.Time { return now })
	for i := 0; i <= quotaSweepMin; i++ {
		fixed.take(fmt.Sprintf("tenant-%d", i))
		now = now.Add(time.Hour)
	}
	if got := fixed.tenants(); got != quotaSweepMin+1 {
		t.Fatalf("rate-0 table holds %d buckets, want all %d", got, quotaSweepMin+1)
	}
	if ok, _ := fixed.take("tenant-0"); ok {
		t.Fatal("rate-0 budget forgotten by a sweep")
	}
}
