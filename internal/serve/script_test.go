package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// scriptConfig is the deterministic 16-node server the scripted
// differentials drive.
func scriptConfig() Config {
	return Config{
		Policy:    "librarisk",
		Nodes:     16,
		TimeScale: 0,
	}
}

// playScript drives a deterministic request mix: staggered arrivals
// whose completions land between ops, bursts of same-instant
// submissions, a mid-script node crash and repair (the killed jobs are
// resubmitted inside the node op), and runtimes collapsed onto a few
// values so completions tie. It returns the decision transcript — one
// line per response — for the differentials to compare.
func playScript(t *testing.T, base string, from, to int) []string {
	t.Helper()
	var lines []string
	for i := from; i < to; i++ {
		// Three ops per instant: T jumps every 3rd op so completions
		// accumulate between bursts.
		at := float64(i/3) * 15
		switch {
		case i == 17:
			tt := at
			postJSON(t, base+"/node", NodeRequest{Node: 3, Down: true, T: &tt}, nil)
			lines = append(lines, "node3down")
			continue
		case i == 29:
			tt := at
			postJSON(t, base+"/node", NodeRequest{Node: 3, Down: false, T: &tt}, nil)
			lines = append(lines, "node3up")
			continue
		}
		out, resp := admitAt(t, base, at, AdmitRequest{
			Tenant:   "script",
			NumProc:  1 + (i%5)*3,
			Runtime:  float64(40 + 30*(i%3)),
			Deadline: 60 + float64(i%4)*25,
		})
		lines = append(lines, fmt.Sprintf("%d %d %v %s", i, resp.StatusCode, out.Accepted, out.Reason))
	}
	return lines
}

const scriptLen = 60

// stateOf snapshots /state, which is fully virtual-deterministic.
func stateOf(t *testing.T, base string) StateResponse {
	t.Helper()
	resp, err := http.Get(base + "/state")
	if err != nil {
		t.Fatalf("/state: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/state: %d", resp.StatusCode)
	}
	var st StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /state: %v", err)
	}
	return st
}

// metricCounter extracts one counter value from a Prometheus text dump.
func metricCounter(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, ln := range strings.Split(body, "\n") {
		if strings.HasPrefix(ln, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(ln, name+" "), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", ln, err)
			}
			return v
		}
	}
	return -1
}
