package serve

import (
	"sort"
	"sync"
	"time"
)

// quotaTable enforces per-tenant admission-rate quotas with burst
// credit: a classic token bucket per tenant, refilled lazily on access.
// rate is tokens per wall second and burst is the bucket depth; rate
// zero with burst positive is a fixed budget that never refills, which
// is the shape the exactness tests pin down (exactly burst admits, no
// timing dependence).
//
// The table stays bounded however many tenants pass through it: once it
// reaches sweepAt buckets, the next new tenant first sweeps out every
// bucket that has refilled to burst (see sweep).
type quotaTable struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int
}

// quotaSweepMin is the smallest table size that triggers a sweep.
const quotaSweepMin = 4096

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(rate, burst float64, now func() time.Time) *quotaTable {
	if burst <= 0 {
		// A pure rate with no declared burst still needs capacity for one
		// request or nothing ever passes.
		burst = 1
	}
	return &quotaTable{
		rate:    rate,
		burst:   burst,
		now:     now,
		buckets: make(map[string]*bucket),
		sweepAt: quotaSweepMin,
	}
}

// bucketFor returns tenant's bucket, creating it full at t. Creating one in
// a table of sweepAt buckets sweeps the table first.
func (q *quotaTable) bucketFor(tenant string, t time.Time) *bucket {
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= q.sweepAt {
			q.sweep(t)
		}
		b = &bucket{tokens: q.burst, last: t}
		q.buckets[tenant] = b
	}
	return b
}

// sweep deletes every bucket that has refilled to burst by t. Such a
// bucket is indistinguishable from an absent one: take refills it to
// exactly burst, and an absent tenant's bucket is created at burst. A
// rate-0 budget never refills, so its bucket is the only record of what
// the tenant has spent and is always remembered. The next sweep waits
// until the table doubles past what survived, so sweeping costs amortised
// O(1) per new tenant.
func (q *quotaTable) sweep(t time.Time) {
	if q.rate > 0 {
		for tenant, b := range q.buckets {
			if b.tokens+t.Sub(b.last).Seconds()*q.rate >= q.burst {
				delete(q.buckets, tenant)
			}
		}
	}
	q.sweepAt = max(quotaSweepMin, 2*len(q.buckets))
}

// take consumes one token from tenant's bucket. When the bucket is
// empty it reports how long until the next token exists (at least one
// second, per Retry-After's integer grain); for a non-replenishing
// budget the wait is "until drain", reported as a flat minute.
func (q *quotaTable) take(tenant string) (ok bool, retryAfter time.Duration) {
	t := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucketFor(tenant, t)
	if q.rate > 0 {
		dt := t.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens += dt * q.rate
			if b.tokens > q.burst {
				b.tokens = q.burst
			}
		}
	}
	b.last = t
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if q.rate <= 0 {
		return false, time.Minute
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}

// tenants returns how many distinct tenants have buckets.
func (q *quotaTable) tenants() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}

// quotaEntry is one tenant's bucket state, serialized into the drain
// checkpoint and the write-ahead log so budgets survive a restart
// instead of silently resetting to a full bucket.
type quotaEntry struct {
	Tenant string  `json:"tenant"`
	Tokens float64 `json:"tokens"`
	// LastUnixNano timestamps the bucket's last refill, so a restored
	// rate-limited bucket resumes refilling from where it left off.
	LastUnixNano int64 `json:"last_unix_nano"`
}

// snapshot captures every bucket, sorted by tenant so checkpoint bytes
// are deterministic.
func (q *quotaTable) snapshot() []quotaEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]quotaEntry, 0, len(q.buckets))
	for tenant, b := range q.buckets {
		out = append(out, quotaEntry{Tenant: tenant, Tokens: b.tokens, LastUnixNano: b.last.UnixNano()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// restore overwrites bucket state from a snapshot.
func (q *quotaTable) restore(entries []quotaEntry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range entries {
		q.buckets[e.Tenant] = &bucket{tokens: e.Tokens, last: time.Unix(0, e.LastUnixNano)}
	}
}

// forceTake re-consumes one token during WAL replay: the logged op only
// exists because the original take succeeded, so the bucket is debited
// unconditionally. This reconstruction is exact for fixed budgets
// (rate 0) and conservative for refilling buckets — refill time lost to
// the crash is not re-credited — and a quota snapshot record later in
// the log overrides it with the exact state.
func (q *quotaTable) forceTake(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucketFor(tenant, q.now())
	b.tokens--
	if b.tokens < 0 {
		b.tokens = 0
	}
}
