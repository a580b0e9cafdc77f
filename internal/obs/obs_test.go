package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden %s: %v", name, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// sampleEvents is a small, fully deterministic trace exercising every
// export branch: a completed span, a killed span, an unfinished span,
// instants with and without job/value/detail, and two run tags.
func sampleEvents() []Event {
	a := NewBuffer("cell000 librarisk", "LibraRisk")
	a.Emit(Event{Time: 0, Kind: KindArrive, Job: 1, Node: -1})
	a.Emit(Event{Time: 0, Kind: KindAdmit, Job: 1, Node: 2, Value: 0.5})
	a.Emit(Event{Time: 0, Kind: KindStart, Job: 1, Node: 2, Value: 120})
	a.Emit(Event{Time: 10, Kind: KindNodeDown, Job: -1, Node: 3})
	a.Emit(Event{Time: 10, Kind: KindFault, Job: -1, Node: 3, Detail: "crash"})
	a.Emit(Event{Time: 90, Kind: KindFinish, Job: 1, Node: 2, Value: 90})
	a.Emit(Event{Time: 95, Kind: KindNodeUp, Job: -1, Node: 3})

	b := NewBuffer("cell001 libra", "Libra")
	b.Emit(Event{Time: 5, Kind: KindArrive, Job: 2, Node: -1})
	b.Emit(Event{Time: 5, Kind: KindReject, Job: 2, Node: -1, Detail: "only 0 of 1 required nodes can hold the share"})
	b.Emit(Event{Time: 6, Kind: KindStart, Job: 3, Node: 0, Value: 60})
	b.Emit(Event{Time: 20, Kind: KindKill, Job: 3, Node: 0, Value: 46})
	b.Emit(Event{Time: 30, Kind: KindStart, Job: 4, Node: 1, Value: 40})

	return append(a.Events(), b.Events()...)
}

func sampleRegistry() *Registry {
	r := NewRegistry()
	m := NewSimMetrics(r)
	m.Submitted.Add(5)
	m.Admitted.Add(3)
	m.Rejected.Add(2)
	m.Completed.Inc()
	m.Kills.Inc()
	m.NodeCrashes.Inc()
	m.NodeRepairs.Inc()
	m.RiskSigma.Observe(0)
	m.RiskSigma.Observe(0.7)
	m.RiskSigma.Observe(100)
	m.AdmitShare.Observe(0.5)
	m.QueueDepth.Observe(3)
	m.NodeUtilization.Observe(0.42)
	m.MaxQueueDepth.Set(3)
	return r
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace.json", buf.Bytes())
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("golden trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("golden trace is empty")
	}
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
}

func TestMetricsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", buf.Bytes())
	// The JSON snapshot must round-trip through encoding/json.
	var snap []MetricSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip lost events: got %d want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestAuditJSONLRoundTrip(t *testing.T) {
	log := NewAuditLog("cell000 librarisk", "LibraRisk")
	log.Begin(12.5, 7, 2, 300, 900, false)
	log.Node(NodeEval{Node: 0, Sigma: 0, Mu: 5, Suitable: true})
	log.Node(NodeEval{Node: 1, Sigma: 2.5, Mu: 8, Suitable: false})
	log.Node(NodeEval{Node: 2, Down: true})
	log.Reject("only 1 of 2 required nodes have zero risk")
	log.Begin(14, 8, 1, 100, 500, true)
	log.Node(NodeEval{Node: 0, Sigma: 0, Mu: 5, Suitable: true})
	log.Accept([]int{0})

	var buf bytes.Buffer
	if err := WriteAuditJSONL(&buf, log.Decisions()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuditJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d decisions, want 2", len(got))
	}
	if got[0].Accepted || got[0].Reason == "" || len(got[0].Nodes) != 3 {
		t.Errorf("rejection decision malformed: %+v", got[0])
	}
	if !got[1].Accepted || !got[1].Resubmit || len(got[1].Chosen) != 1 {
		t.Errorf("acceptance decision malformed: %+v", got[1])
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("sequence numbers not contiguous: %d, %d", got[0].Seq, got[1].Seq)
	}
}

func TestBufferResetStableSequence(t *testing.T) {
	b := NewBuffer("run-a", "EDF")
	b.Emit(Event{Time: 1, Kind: KindArrive, Job: 0, Node: -1})
	b.Emit(Event{Time: 2, Kind: KindAdmit, Job: 0, Node: 0})
	first := append([]Event(nil), b.Events()...)

	b.Reset("run-a", "EDF")
	b.Emit(Event{Time: 1, Kind: KindArrive, Job: 0, Node: -1})
	b.Emit(Event{Time: 2, Kind: KindAdmit, Job: 0, Node: 0})
	second := b.Events()

	if len(first) != len(second) {
		t.Fatalf("length mismatch after reset: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("event %d differs after reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// Buckets: ≤1 gets 0.5 and 1; ≤2 gets 1.5; ≤4 gets 3; +Inf gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d: got %d want %d", i, h.counts[i], w)
		}
	}
	if h.Count() != 5 || h.Sum() != 106 {
		t.Errorf("count/sum: got %d/%g want 5/106", h.Count(), h.Sum())
	}
}

func TestRegistryMergeCommutative(t *testing.T) {
	build := func(scale float64) *Registry {
		r := NewRegistry()
		m := NewSimMetrics(r)
		m.Submitted.Add(10 * scale)
		m.RiskSigma.Observe(scale)
		m.MaxQueueDepth.Set(scale)
		return r
	}
	ab, ba := NewRegistry(), NewRegistry()
	for _, s := range []float64{1, 2} {
		if err := ab.Merge(build(s)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []float64{2, 1} {
		if err := ba.Merge(build(s)); err != nil {
			t.Fatal(err)
		}
	}
	var b1, b2 bytes.Buffer
	if err := ab.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := ba.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("merge is order-dependent:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if got := ab.Gauge("sim_queue_depth_max", "").Value(); got != 2 {
		t.Errorf("gauge merge: got %g want max 2", got)
	}
	if got := ab.Counter("sim_jobs_submitted_total", "").Value(); got != 30 {
		t.Errorf("counter merge: got %g want 30", got)
	}
}

func TestRegistryMergeBoundsMismatch(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("h", "", []float64{1, 2})
	b.Histogram("h", "", []float64{1, 3})
	if err := a.Merge(b); err == nil {
		t.Fatal("expected bounds-mismatch error")
	}
}

func TestSweepDeterministicOrder(t *testing.T) {
	s := NewSweep(Options{Trace: true, Audit: true, Metrics: true})
	// Finish runs out of order; Events/Decisions must still sort by run.
	r2 := s.NewRun("cell002", "Libra")
	r2.Trace.Emit(Event{Time: 9, Kind: KindArrive, Job: 5, Node: -1})
	r2.Audit.Begin(9, 5, 1, 10, 20, false)
	r2.Audit.Accept([]int{0})
	r2.Sim.Submitted.Inc()
	r1 := s.NewRun("cell001", "Libra")
	r1.Trace.Emit(Event{Time: 3, Kind: KindArrive, Job: 4, Node: -1})
	r1.Audit.Begin(3, 4, 1, 10, 20, false)
	r1.Audit.Reject("no")
	r1.Sim.Submitted.Inc()
	if err := s.Finish(r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(r1); err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	if len(evs) != 2 || evs[0].Run != "cell001" || evs[1].Run != "cell002" {
		t.Errorf("events not sorted by run: %+v", evs)
	}
	decs := s.Decisions()
	if len(decs) != 2 || decs[0].Run != "cell001" || decs[1].Run != "cell002" {
		t.Errorf("decisions not sorted by run: %+v", decs)
	}
	if got := s.Registry().Counter("sim_jobs_submitted_total", "").Value(); got != 2 {
		t.Errorf("merged submitted: got %g want 2", got)
	}
}

func TestNewSweepNilWhenDisabled(t *testing.T) {
	if s := NewSweep(Options{}); s != nil {
		t.Fatal("NewSweep with no layers must return nil")
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for i := Kind(0); i < numKinds; i++ {
		b, err := i.MarshalText()
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if back != i {
			t.Errorf("round trip %d → %q → %d", i, b, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("expected error for unknown kind name")
	}
	if len(KindNames()) != int(numKinds) {
		t.Errorf("KindNames length %d != %d", len(KindNames()), numKinds)
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		0.5:         "0.5",
		1:           "1",
		math.Inf(1): "+Inf",
	}
	for v, want := range cases {
		if got := promFloat(v); got != want {
			t.Errorf("promFloat(%g) = %q, want %q", v, got, want)
		}
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ValidateChromeTrace(strings.NewReader("not json")); err == nil {
		t.Error("expected parse error")
	}
	bad := `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`
	if _, err := ValidateChromeTrace(strings.NewReader(bad)); err == nil {
		t.Error("expected unknown-phase error")
	}
}

func TestAuditLogDrainKeepsSequence(t *testing.T) {
	a := NewAuditLog("serve", "LibraRisk")
	a.Begin(1, 10, 2, 100, 500, false)
	a.Accept([]int{0, 1})
	a.Begin(2, 11, 1, 50, 300, false)
	a.Reject("no zero-risk node")
	first := a.Drain()
	if len(first) != 2 || a.Len() != 0 {
		t.Fatalf("Drain returned %d decisions, log kept %d; want 2 and 0", len(first), a.Len())
	}
	if first[0].Seq != 1 || first[1].Seq != 2 {
		t.Fatalf("drained seqs = %d,%d; want 1,2", first[0].Seq, first[1].Seq)
	}
	// Decisions after a drain continue the sequence instead of restarting,
	// so a streamed audit file is indistinguishable from an in-memory one.
	a.Begin(3, 12, 1, 60, 400, false)
	a.Accept([]int{2})
	second := a.Drain()
	if len(second) != 1 || second[0].Seq != 3 {
		t.Fatalf("post-drain decision seq = %+v, want one decision with seq 3", second)
	}
	if got := a.Drain(); len(got) != 0 {
		t.Fatalf("empty Drain returned %d decisions", len(got))
	}
}

// TestCounterSet: a counter set from a cumulative source reads the
// source's total, however often it is set, as the same counter fed the
// growth since its last read would.
func TestCounterSet(t *testing.T) {
	var set, added Counter
	last := 0.0
	for _, total := range []float64{0, 3, 3, 10, 1 << 40} {
		set.Set(total)
		added.Add(total - last)
		last = total
		if set.Value() != total || added.Value() != total {
			t.Fatalf("total %v: Set gives %v, Add of deltas %v", total, set.Value(), added.Value())
		}
	}
}
