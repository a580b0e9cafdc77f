package swf

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `; Version: 2.2
; Computer: IBM SP2
; Installation: SDSC
; MaxNodes: 128
; Note: this is a synthetic fixture.
1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1
2 10 0 50 8 -1 -1 8 40 -1 1 4 1 -1 1 -1 -1 -1
3 25 2 300 1 -1 -1 1 600 -1 0 5 1 -1 1 -1 -1 -1
4 30 0 0 2 -1 -1 2 100 -1 4 5 1 -1 1 -1 -1 -1
`

func parseSample(t *testing.T) *Trace {
	t.Helper()
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseRecords(t *testing.T) {
	tr := parseSample(t)
	if len(tr.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(tr.Records))
	}
	r := tr.Records[0]
	if r.JobNumber != 1 || r.Submit != 0 || r.Wait != 5 || r.RunTime != 100 ||
		r.AllocProcs != 4 || r.ReqProcs != 4 || r.ReqTime != 200 || r.Status != 1 {
		t.Fatalf("record 0 parsed wrong: %+v", r)
	}
	if r.UsedMemory != Missing {
		t.Fatalf("UsedMemory = %d, want Missing", r.UsedMemory)
	}
}

func TestParseHeader(t *testing.T) {
	tr := parseSample(t)
	if v, ok := tr.Header.Get("version"); !ok || v != "2.2" {
		t.Fatalf("Version = %q, %v", v, ok)
	}
	if v, ok := tr.Header.Get("MaxNodes"); !ok || v != "128" {
		t.Fatalf("MaxNodes = %q, %v", v, ok)
	}
	if _, ok := tr.Header.Get("nope"); ok {
		t.Fatal("unexpected header key found")
	}
}

func TestParseBadLine(t *testing.T) {
	_, err := Parse(strings.NewReader("1 2 3\n"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 1 {
		t.Fatalf("Line = %d, want 1", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 1") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestParseNonNumericField(t *testing.T) {
	line := "1 0 5 abc 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n"
	if _, err := Parse(strings.NewReader(line)); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

func TestParseRejectsGarbageValues(t *testing.T) {
	const good = "1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n"
	cases := []struct {
		name string
		line string
		want string // substring of the error message
	}{
		{"NaN runtime", "1 0 5 NaN 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "not finite"},
		{"infinite submit", "1 Inf 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "not finite"},
		{"negative infinity", "1 0 5 -Inf 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "not finite"},
		{"int64 overflow", "1 0 5 1e300 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "out of range"},
		{"negative runtime", "1 0 5 -100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "negative runtime"},
		{"negative submit", "1 -7 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "negative submit"},
		{"negative alloc procs", "1 0 5 100 -4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "negative allocated processor"},
		{"negative req procs", "1 0 5 100 4 -1 -1 -4 200 -1 1 3 1 -1 1 -1 -1 -1\n", "negative requested processor"},
		{"negative estimate", "1 0 5 100 4 -1 -1 4 -200 -1 1 3 1 -1 1 -1 -1 -1\n", "negative runtime estimate"},
		{"non-monotonic submit", good + "2 30 0 50 8 -1 -1 8 40 -1 1 4 1 -1 1 -1 -1 -1\n" +
			"3 20 0 50 8 -1 -1 8 40 -1 1 4 1 -1 1 -1 -1 -1\n", "not in submission order"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.line))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want *ParseError", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseNonMonotonicReportsLine(t *testing.T) {
	in := "; head: 1\n" +
		"1 10 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n" +
		"2 5 0 50 8 -1 -1 8 40 -1 1 4 1 -1 1 -1 -1 -1\n"
	_, err := Parse(strings.NewReader(in))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("Line = %d, want 3 (the offending record)", pe.Line)
	}
}

func TestParseMissingSentinelsStillAccepted(t *testing.T) {
	// All-missing record: every -1 is the spec sentinel, not garbage.
	in := "-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n"
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Records[0].RunTime != Missing {
		t.Fatalf("records = %+v", tr.Records)
	}
}

func TestParseSkipsBlankAndLateComments(t *testing.T) {
	in := "\n; head: 1\n1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n; trailing comment\n\n2 10 0 50 8 -1 -1 8 40 -1 1 4 1 -1 1 -1 -1 -1\n"
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records))
	}
	if _, ok := tr.Header.Get("head"); !ok {
		t.Fatal("header before records lost")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := parseSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Records) != len(tr.Records) {
		t.Fatalf("round trip records = %d, want %d", len(tr2.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if tr.Records[i] != tr2.Records[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, tr.Records[i], tr2.Records[i])
		}
	}
	if v, ok := tr2.Header.Get("Version"); !ok || v != "2.2" {
		t.Fatalf("header lost on round trip: %q %v", v, ok)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(job, submit, wait, run uint16, procs, req uint8) bool {
		rec := Record{
			JobNumber: int(job), Submit: int64(submit), Wait: int64(wait),
			RunTime: int64(run), AllocProcs: int(procs), AvgCPUTime: Missing,
			UsedMemory: Missing, ReqProcs: int(req), ReqTime: int64(run) * 2,
			ReqMemory: Missing, Status: 1, UserID: 1, GroupID: 1,
			Executable: Missing, QueueNumber: 1, PartitionNum: Missing,
			PrecedingJob: Missing, ThinkTimeAfter: Missing,
		}
		var buf bytes.Buffer
		if err := Write(&buf, &Trace{Records: []Record{rec}}); err != nil {
			return false
		}
		tr, err := Parse(&buf)
		if err != nil || len(tr.Records) != 1 {
			return false
		}
		return tr.Records[0] == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLastN(t *testing.T) {
	tr := parseSample(t)
	sub := tr.LastN(2)
	if len(sub.Records) != 2 {
		t.Fatalf("LastN(2) kept %d", len(sub.Records))
	}
	if sub.Records[0].JobNumber != 3 || sub.Records[1].JobNumber != 4 {
		t.Fatalf("LastN kept wrong jobs: %+v", sub.Records)
	}
	if sub.Records[0].Submit != 0 || sub.Records[1].Submit != 5 {
		t.Fatalf("LastN must rebase submit times: %d, %d", sub.Records[0].Submit, sub.Records[1].Submit)
	}
	// Requesting more than available keeps everything.
	all := tr.LastN(100)
	if len(all.Records) != 4 {
		t.Fatalf("LastN(100) kept %d", len(all.Records))
	}
}

func TestLastNDoesNotMutateOriginal(t *testing.T) {
	tr := parseSample(t)
	_ = tr.LastN(2)
	if tr.Records[2].Submit != 25 {
		t.Fatal("LastN mutated the source trace")
	}
}

func TestCompletedOnly(t *testing.T) {
	tr := parseSample(t)
	c := tr.CompletedOnly()
	// Job 3 failed (status 0), job 4 cancelled with zero runtime.
	if len(c.Records) != 2 {
		t.Fatalf("CompletedOnly kept %d, want 2", len(c.Records))
	}
	for _, r := range c.Records {
		if r.RunTime <= 0 {
			t.Fatalf("kept non-running record %+v", r)
		}
	}
}

func TestProcsFallback(t *testing.T) {
	r := Record{AllocProcs: Missing, ReqProcs: 16}
	if r.Procs() != 16 {
		t.Fatalf("Procs() = %d, want requested fallback", r.Procs())
	}
	r.AllocProcs = 8
	if r.Procs() != 8 {
		t.Fatalf("Procs() = %d, want allocated", r.Procs())
	}
}

func TestComputeStats(t *testing.T) {
	tr := parseSample(t)
	s := ComputeStats(tr)
	if s.Jobs != 4 {
		t.Fatalf("Jobs = %d", s.Jobs)
	}
	if math.Abs(s.MeanInterarrival-10) > 1e-9 { // gaps 10,15,5
		t.Fatalf("MeanInterarrival = %v, want 10", s.MeanInterarrival)
	}
	if math.Abs(s.MeanRunTime-112.5) > 1e-9 { // (100+50+300+0)/4
		t.Fatalf("MeanRunTime = %v", s.MeanRunTime)
	}
	if s.MaxProcs != 8 {
		t.Fatalf("MaxProcs = %d", s.MaxProcs)
	}
	if s.Span != 30 {
		t.Fatalf("Span = %d", s.Span)
	}
	// Jobs 1,2,3 have estimates and positive runtime; job 2 underestimated.
	if s.WithEstimate != 3 || s.Underestimated != 1 {
		t.Fatalf("WithEstimate = %d Underestimated = %d", s.WithEstimate, s.Underestimated)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(&Trace{})
	if s.Jobs != 0 || s.MeanRunTime != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestHeaderSetReplaces(t *testing.T) {
	var h Header
	h.Set("Version", "2")
	h.Set("version", "2.2")
	if len(h.Fields) != 1 {
		t.Fatalf("Fields = %v, want single replaced entry", h.Fields)
	}
	if v, _ := h.Get("VERSION"); v != "2.2" {
		t.Fatalf("Get = %q", v)
	}
}

func TestNarrativeCommentNotTreatedAsDirective(t *testing.T) {
	in := "; This trace was converted. Fields: are described at the website below\n1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 -1 -1 -1\n"
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Header.Comments) != 1 {
		t.Fatalf("Comments = %v, want the narrative line preserved", tr.Header.Comments)
	}
}
