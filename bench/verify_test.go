package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"clustersched/internal/obs"
)

// smallSpec is a serving workload small enough for a unit test.
var smallSpec = spec{Name: "test", Nodes: 16, MaxProcs: 4, ADF: 0.5}

// answered plays the daemon: it pushes the stream through an in-process
// server and records what a client would have read.
func answered(t *testing.T, reqs []request) []opResult {
	t.Helper()
	srv, err := newReplayServer(smallSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res := make([]opResult, len(reqs))
	for i, r := range reqs {
		code, ar := admitInProcess(srv.Handler(), r.body)
		if code != http.StatusOK {
			t.Fatalf("op %d answered %d", i, code)
		}
		res[i] = opResult{status: code, job: ar.Job, t: ar.T, accepted: ar.Accepted}
	}
	return res
}

func TestVerifyDecisionsCatchesOneFlippedDecision(t *testing.T) {
	reqs, err := genRequests(3, 400, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	res := answered(t, reqs)
	accepted := 0
	for _, r := range res {
		if r.accepted {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(res) {
		t.Fatalf("%d of %d accepted: the stream does not exercise both decisions", accepted, len(res))
	}
	if err := verifyDecisions(smallSpec, reqs, res); err != nil {
		t.Fatalf("a faithful record failed verification: %v", err)
	}
	// Arrival order on the wire does not matter, apply order does.
	res[10], res[11] = res[11], res[10]
	reqs[10], reqs[11] = reqs[11], reqs[10]
	if err := verifyDecisions(smallSpec, reqs, res); err != nil {
		t.Fatalf("reordered arrival failed verification: %v", err)
	}
	res[200].accepted = !res[200].accepted
	err = verifyDecisions(smallSpec, reqs, res)
	if err == nil || !strings.Contains(err.Error(), "sequential replay") {
		t.Fatalf("a flipped decision passed verification: %v", err)
	}
}

func TestTraceFilePassesTheProductValidator(t *testing.T) {
	reqs, err := genRequests(3, 50, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	cr, err := coreRung(smallSpec, reqs, tr)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newReplayServer(smallSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	hr := handlerRung(srv.Handler(), reqs, tr)
	srv.Close()
	if i := sameDecisions(cr.accepted, hr.accepted); i >= 0 {
		t.Errorf("op %d: core and handler rungs disagree", i)
	}
	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A root per rung, three spans per core op, one per handler op, two probes.
	if want := 2 + 3*50 + 50 + 2; n != want {
		t.Errorf("%d trace events, want %d", n, want)
	}
	for _, s := range tr.spans {
		if s.parent >= 0 && (tr.spans[s.parent].start.After(s.start) || tr.spans[s.parent].end.Before(s.end)) {
			t.Fatalf("span %q is not inside its parent %q", s.name, tr.spans[s.parent].name)
		}
	}
	if (&tracer{}).write(&buf) == nil {
		t.Error("an empty trace was written")
	}
}
