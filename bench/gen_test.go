package main

import (
	"bytes"
	"testing"
)

func streamBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	s, _ := findSpec("serve_durable")
	reqs, err := genRequests(seed, 500, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different request bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same request bytes")
	}
}

func TestRequestsCarryVirtualTimeAndTraceEstimates(t *testing.T) {
	s, _ := findSpec("serve_wire")
	reqs, err := genRequests(1, 200, s)
	if err != nil {
		t.Fatal(err)
	}
	last, inaccurate := -1.0, 0
	for i, r := range reqs {
		if r.req.T == nil || *r.req.T < last {
			t.Fatalf("request %d: virtual time missing or going backwards", i)
		}
		last = *r.req.T
		if r.req.NumProc > s.MaxProcs {
			t.Fatalf("request %d asks for %d processors, cap is %d", i, r.req.NumProc, s.MaxProcs)
		}
		if r.req.Estimate != r.req.Runtime {
			inaccurate++
		}
	}
	if inaccurate < len(reqs)/2 {
		t.Errorf("only %d of %d estimates differ from the runtime: inaccuracy should be 100 %%", inaccurate, len(reqs))
	}
}
