package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clustersched/internal/serve"
)

// loadConns is the closed-loop client count: exactly two keep-alive
// connections, fixed (not nproc) so results from different hosts compare.
const loadConns = 2

// coldCycles is how many spawn → preload → crash → resume cycles one
// invocation measures; setup_s and recover_ms are their medians.
const coldCycles = 3

// opResult is one request's outcome as the client saw it.
type opResult struct {
	status   int
	job      int
	t        float64
	accepted bool
	latMS    float64
	endS     float64 // completion time, seconds since the phase started
}

// drive sends reqs closed-loop over nConns keep-alive connections: each
// connection takes the next unsent request the moment its previous one
// is answered. Every request is timed from send to response read.
func drive(base string, reqs []request, nConns int) ([]opResult, error) {
	res := make([]opResult, len(reqs))
	conns := make([]*conn, nConns)
	for i := range conns {
		c, err := dial(base)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, nConns)
	start := time.Now()
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				status, body, err := c.do("/admit", reqs[i].body)
				t1 := time.Now()
				if err != nil {
					// The connection is unusable after a transport
					// error; the remaining ops count as failed.
					errs[w] = err
					res[i].status = -1
					return
				}
				r := &res[i]
				r.status = status
				r.latMS = float64(t1.Sub(t0)) / 1e6
				r.endS = t1.Sub(start).Seconds()
				if status == http.StatusOK {
					var ar serve.AdmitResponse
					if err := json.Unmarshal(body, &ar); err != nil {
						r.status = -1
						continue
					}
					r.job, r.t, r.accepted = ar.Job, ar.T, ar.Accepted
				}
			}
		}(w, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// countFailed counts requests that were not answered 200.
func countFailed(res []opResult) int {
	n := 0
	for _, r := range res {
		if r.status != http.StatusOK {
			n++
		}
	}
	return n
}

// stateKey is the part of /state that a resume must reproduce exactly.
// The admitted/rejected counters are left out: they count HTTP answers
// of the current process and restart from zero (see README, findings).
type stateKey struct {
	OpsApplied  int     `json:"ops_applied"`
	Running     int     `json:"running"`
	NodesUp     int     `json:"nodes_up"`
	VirtualTime float64 `json:"virtual_time"`
}

func fetchState(base string) (stateKey, error) {
	var st stateKey
	raw, err := get(base, "/state")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(raw, &st)
}

// newReplayServer builds the in-process server every verification and
// layer measurement uses: same policy, cluster and clock as the daemon.
func newReplayServer(s spec, mod func(*serve.Config)) (*serve.Server, error) {
	cfg := serve.Config{
		Policy:         "librarisk",
		Nodes:          s.Nodes,
		TimeScale:      0,
		QueueDepth:     1024,
		RequestTimeout: 30 * time.Second,
	}
	if mod != nil {
		mod(&cfg)
	}
	return serve.New(cfg)
}

// admitInProcess pushes one request through the handler and decodes the
// decision.
func admitInProcess(h http.Handler, body []byte) (int, serve.AdmitResponse) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(body))
	h.ServeHTTP(rec, req)
	var ar serve.AdmitResponse
	if rec.Code == http.StatusOK {
		_ = json.Unmarshal(rec.Body.Bytes(), &ar)
	}
	return rec.Code, ar
}

// verifyDecisions replays the answered requests sequentially in-process,
// in the order the daemon applied them and at the virtual times its
// responses reported, and requires every accept/reject to match. Two
// connections may reorder neighbouring requests on the wire; replaying
// in apply order makes the check independent of that.
func verifyDecisions(s spec, reqs []request, res []opResult) error {
	order := make([]int, len(res))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return res[order[a]].job < res[order[b]].job })
	srv, err := newReplayServer(s, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	for n, i := range order {
		r := reqs[i].req
		t := res[i].t
		r.T = &t
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		code, ar := admitInProcess(h, body)
		if code != http.StatusOK {
			return fmt.Errorf("verify: replay of op %d answered %d", i, code)
		}
		if ar.Job != n+1 || res[i].job != n+1 {
			return fmt.Errorf("verify: op %d applied as job %d by the daemon, %d in replay: apply order has a gap", i, res[i].job, ar.Job)
		}
		if ar.Accepted != res[i].accepted {
			return fmt.Errorf("verify: job %d (op %d, t=%g): daemon accepted=%v, sequential replay accepted=%v",
				ar.Job, i, t, res[i].accepted, ar.Accepted)
		}
	}
	return nil
}

// runServe measures one serving workload end to end.
func (b *bench) runServe(s spec) error {
	segs := s.timedSegments(b.seconds)
	total := s.Preload + (segs+1)*s.SegOps
	reqs, err := genRequests(b.seed, total, s)
	if err != nil {
		return err
	}
	preload, timed := reqs[:s.Preload], reqs[s.Preload:]

	var setupS, recoverMS []float64
	var d *daemon
	var lastPreload []opResult
	for cycle := 1; cycle <= coldCycles; cycle++ {
		dir := filepath.Join(b.tmp, fmt.Sprintf("cycle%d", cycle))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		args := daemonArgs{nodes: s.Nodes}
		if s.Durable {
			args.walDir = filepath.Join(dir, "wal")
		} else {
			args.checkpoint = filepath.Join(dir, "drain.ckpt")
		}
		// Set-up: a fresh process on a fresh directory, then W ops over
		// the wire until the cluster holds its steady resident load.
		t0 := time.Now()
		cold, _, err := b.procs.startDaemon(b.admissiond, args)
		if err != nil {
			return err
		}
		res, err := drive(cold.base, preload, loadConns)
		setup := time.Since(t0).Seconds()
		b.sent += len(preload)
		b.failed += countFailed(res)
		if err != nil {
			return fmt.Errorf("cycle %d preload: %w", cycle, err)
		}
		setupS = append(setupS, setup)
		before, err := fetchState(cold.base)
		if err != nil {
			return err
		}
		// Crash: the durable daemon is killed outright and must recover
		// from its log; the others drain to a checkpoint.
		if s.Durable {
			cold.kill()
		} else if err := cold.terminate(); err != nil {
			return fmt.Errorf("cycle %d drain: %w", cycle, err)
		}

		args.resume = true
		warm, took, err := b.procs.startDaemon(b.admissiond, args)
		if err != nil {
			return fmt.Errorf("cycle %d resume: %w", cycle, err)
		}
		recoverMS = append(recoverMS, float64(took)/1e6)
		after, err := fetchState(warm.base)
		if err != nil {
			return err
		}
		if after != before {
			b.fail("cycle %d: /state after resume %+v differs from before the crash %+v", cycle, after, before)
		}
		if cycle < coldCycles {
			if err := warm.terminate(); err != nil {
				return fmt.Errorf("cycle %d shutdown: %w", cycle, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		d, lastPreload = warm, res
	}

	if countFailed(lastPreload) == 0 {
		if err := verifyDecisions(s, preload, lastPreload); err != nil {
			b.fail("%v", err)
			b.failed++
		}
	}

	// Timed phase on the third recovered daemon.
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return err
	}
	res, driveErr := drive(d.base, timed, loadConns)
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}
	b.sent += len(timed)
	b.failed += countFailed(res)
	if driveErr != nil {
		return fmt.Errorf("timed phase: %w", driveErr)
	}
	if err := d.terminate(); err != nil {
		b.fail("final drain: %v", err)
	}

	endS := make([]float64, len(res))
	latMS := make([]float64, len(res))
	accepted := 0
	for i, r := range res {
		endS[i], latMS[i] = r.endS, r.latMS
		if r.accepted {
			accepted++
		}
	}
	all := cutSegments(0, endS, latMS, s.SegOps)
	measured := all[1:] // the first segment is warm-up
	b.acceptedPct = 100 * float64(accepted) / float64(len(res))
	if b.acceptedPct < s.AcceptedPct-s.AcceptedTol || b.acceptedPct > s.AcceptedPct+s.AcceptedTol {
		b.fail("accepted_pct %.2f outside %.2f ± %.1f", b.acceptedPct, s.AcceptedPct, s.AcceptedTol)
	}

	tailName := fmt.Sprintf("p%g per segment", tailPercentile(s.SegOps))
	b.put("setup_s", "s", summarize(setupS), "cold cycles")
	b.put("ops_per_s", "1/s", overSegments(measured, segment.rate), "segments")
	b.put("op_p50_ms", "ms", overSegments(measured, segment.p50), "segments")
	b.put("op_tail_ms", "ms", overSegments(measured, segment.tail), "segments, "+tailName)
	b.putValue("cpu_us_per_op", "us", (cpu1-cpu0)*1e6/float64(len(res)), "daemon utime+stime over the timed phase")
	b.put("recover_ms", "ms", summarize(recoverMS), "cold cycles")
	b.putValue("peak_rss_mb", "MB", rss, "daemon VmHWM after the timed phase")
	return nil
}
