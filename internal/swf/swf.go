// Package swf reads and writes the Standard Workload Format (SWF) used by
// Feitelson's Parallel Workloads Archive, the format of the SDSC SP2 trace
// the paper's evaluation replays. Each non-comment line has 18
// whitespace-separated integer fields; missing values are -1.
//
// The archive file itself cannot be redistributed here, so the experiment
// harness generates a statistically calibrated synthetic equivalent (see
// internal/workload); this package lets a user substitute the real
// SDSC-SP2-1998-4.2-cln.swf byte-for-byte when they have it.
package swf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Missing is the SWF sentinel for an absent field.
const Missing = -1

// Record is one job line of an SWF trace. Times are in seconds; Submit is
// relative to the trace start.
type Record struct {
	JobNumber      int
	Submit         int64 // seconds since trace start
	Wait           int64 // seconds spent queued
	RunTime        int64 // actual wallclock runtime, seconds
	AllocProcs     int   // processors actually allocated
	AvgCPUTime     int64
	UsedMemory     int64
	ReqProcs       int   // processors requested
	ReqTime        int64 // user runtime estimate, seconds
	ReqMemory      int64
	Status         int
	UserID         int
	GroupID        int
	Executable     int
	QueueNumber    int
	PartitionNum   int
	PrecedingJob   int
	ThinkTimeAfter int64
}

// Status codes defined by the SWF specification.
const (
	StatusFailed    = 0
	StatusCompleted = 1
	StatusPartial   = 2 // partial execution (checkpointed segment)
	StatusLast      = 3 // last segment of a partial job
	StatusCancelled = 4
	StatusUnknown   = Missing
)

// Procs returns the best available processor count: allocated if present,
// otherwise requested.
func (r Record) Procs() int {
	if r.AllocProcs > 0 {
		return r.AllocProcs
	}
	return r.ReqProcs
}

// HasEstimate reports whether the record carries a usable user runtime
// estimate.
func (r Record) HasEstimate() bool { return r.ReqTime > 0 }

// Header carries the `; Key: Value` comment directives from the top of an
// SWF file, preserving order, plus free-form comment lines.
type Header struct {
	Fields   []HeaderField
	Comments []string
}

// HeaderField is a single `; Key: Value` directive.
type HeaderField struct {
	Key   string
	Value string
}

// Get returns the value for key (case-insensitive) and whether it exists.
func (h *Header) Get(key string) (string, bool) {
	for _, f := range h.Fields {
		if strings.EqualFold(f.Key, key) {
			return f.Value, true
		}
	}
	return "", false
}

// Set appends or replaces a directive.
func (h *Header) Set(key, value string) {
	for i, f := range h.Fields {
		if strings.EqualFold(f.Key, key) {
			h.Fields[i].Value = value
			return
		}
	}
	h.Fields = append(h.Fields, HeaderField{Key: key, Value: value})
}

// Trace is a parsed SWF workload.
type Trace struct {
	Header  Header
	Records []Record
}

// ParseError reports a malformed line with its position.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("swf: line %d: %s", e.Line, e.Msg)
}

// Parse reads an SWF trace. Comment lines (starting with ';') before the
// first job line populate the header; later comments are ignored. Malformed
// job lines produce a *ParseError.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	inHeader := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			if inHeader {
				parseHeaderLine(&tr.Header, line)
			}
			continue
		}
		inHeader = false
		rec, err := parseRecord(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
		// The SWF specification orders job lines by submission time; a
		// regression there silently corrupts interarrival statistics and
		// any windowing, so it is a parse error, not a quiet re-sort.
		if len(tr.Records) > 0 {
			if prev := tr.Records[len(tr.Records)-1].Submit; rec.Submit < prev {
				return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf(
					"submit time %d before previous record's %d: trace not in submission order", rec.Submit, prev)}
			}
		}
		tr.Records = append(tr.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: read: %w", err)
	}
	return tr, nil
}

func parseHeaderLine(h *Header, line string) {
	body := strings.TrimSpace(strings.TrimPrefix(line, ";"))
	if body == "" {
		return
	}
	if k, v, ok := strings.Cut(body, ":"); ok {
		key := strings.TrimSpace(k)
		// Directive keys are single words or short phrases; anything with
		// interior sentence punctuation is narrative text.
		if key != "" && !strings.ContainsAny(key, ".;") && len(key) <= 40 {
			h.Set(key, strings.TrimSpace(v))
			return
		}
	}
	h.Comments = append(h.Comments, body)
}

func parseRecord(line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) != 18 {
		return Record{}, fmt.Errorf("got %d fields, want 18", len(fields))
	}
	var v [18]int64
	for i, f := range fields {
		n, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return Record{}, fmt.Errorf("field %d %q: not numeric", i+1, f)
		}
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return Record{}, fmt.Errorf("field %d %q: not finite", i+1, f)
		}
		// float64(1<<63) is exact, so these bounds are the precise set of
		// values whose int64 conversion is defined.
		if n < math.MinInt64 || n >= math.MaxInt64 {
			return Record{}, fmt.Errorf("field %d %q: out of range", i+1, f)
		}
		v[i] = int64(n)
	}
	rec := Record{
		JobNumber:      int(v[0]),
		Submit:         v[1],
		Wait:           v[2],
		RunTime:        v[3],
		AllocProcs:     int(v[4]),
		AvgCPUTime:     v[5],
		UsedMemory:     v[6],
		ReqProcs:       int(v[7]),
		ReqTime:        v[8],
		ReqMemory:      v[9],
		Status:         int(v[10]),
		UserID:         int(v[11]),
		GroupID:        int(v[12]),
		Executable:     int(v[13]),
		QueueNumber:    int(v[14]),
		PartitionNum:   int(v[15]),
		PrecedingJob:   int(v[16]),
		ThinkTimeAfter: v[17],
	}
	// -1 is the spec's missing-value sentinel; anything below it in the
	// fields the simulator consumes is garbage, not data.
	switch {
	case rec.Submit < Missing:
		return Record{}, fmt.Errorf("negative submit time %d", rec.Submit)
	case rec.Wait < Missing:
		return Record{}, fmt.Errorf("negative wait time %d", rec.Wait)
	case rec.RunTime < Missing:
		return Record{}, fmt.Errorf("negative runtime %d", rec.RunTime)
	case rec.AllocProcs < Missing:
		return Record{}, fmt.Errorf("negative allocated processor count %d", rec.AllocProcs)
	case rec.ReqProcs < Missing:
		return Record{}, fmt.Errorf("negative requested processor count %d", rec.ReqProcs)
	case rec.ReqTime < Missing:
		return Record{}, fmt.Errorf("negative runtime estimate %d", rec.ReqTime)
	}
	return rec, nil
}

// Write emits the trace in SWF format: header directives, free comments,
// then one job per line.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for _, f := range tr.Header.Fields {
		if _, err := fmt.Fprintf(bw, "; %s: %s\n", f.Key, f.Value); err != nil {
			return err
		}
	}
	for _, c := range tr.Header.Comments {
		if _, err := fmt.Fprintf(bw, "; %s\n", c); err != nil {
			return err
		}
	}
	for _, r := range tr.Records {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
			r.JobNumber, r.Submit, r.Wait, r.RunTime, r.AllocProcs, r.AvgCPUTime,
			r.UsedMemory, r.ReqProcs, r.ReqTime, r.ReqMemory, r.Status, r.UserID,
			r.GroupID, r.Executable, r.QueueNumber, r.PartitionNum, r.PrecedingJob,
			r.ThinkTimeAfter); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LastN returns a copy of the trace restricted to the last n records (by
// submit order), with submit times rebased so the first retained record
// submits at 0. The paper uses the last 3000 jobs of the SDSC SP2 trace.
func (tr *Trace) LastN(n int) *Trace {
	recs := append([]Record(nil), tr.Records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Submit < recs[j].Submit })
	if n < len(recs) {
		recs = recs[len(recs)-n:]
	}
	out := &Trace{Header: tr.Header, Records: recs}
	out.rebase()
	return out
}

// CompletedOnly returns a copy keeping only records that ran to completion
// with positive runtime and processor count — the usual cleaning step
// before replaying a trace through a simulator.
func (tr *Trace) CompletedOnly() *Trace {
	out := &Trace{Header: tr.Header}
	for _, r := range tr.Records {
		if r.RunTime > 0 && r.Procs() > 0 && (r.Status == StatusCompleted || r.Status == StatusUnknown) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

func (tr *Trace) rebase() {
	if len(tr.Records) == 0 {
		return
	}
	base := tr.Records[0].Submit
	for _, r := range tr.Records[1:] {
		if r.Submit < base {
			base = r.Submit
		}
	}
	for i := range tr.Records {
		tr.Records[i].Submit -= base
	}
}

// Stats summarizes a trace the way the paper's §4 does.
type Stats struct {
	Jobs             int
	MeanInterarrival float64 // seconds
	MeanRunTime      float64 // seconds
	MeanProcs        float64
	MaxProcs         int
	Span             int64 // seconds from first to last submission
	WithEstimate     int   // records carrying a user estimate
	// MeanOverestimate is the mean of estimate/runtime over jobs with both,
	// the paper's headline observation that estimates are "often over
	// estimated".
	MeanOverestimate float64
	Underestimated   int // jobs whose runtime exceeded the estimate
}

// ComputeStats derives summary statistics from the trace.
func ComputeStats(tr *Trace) Stats {
	s := Stats{Jobs: len(tr.Records)}
	if s.Jobs == 0 {
		return s
	}
	var inter, run, procs, over sim2
	prev := tr.Records[0].Submit
	first, last := tr.Records[0].Submit, tr.Records[0].Submit
	for i, r := range tr.Records {
		if i > 0 {
			inter.add(float64(r.Submit - prev))
		}
		prev = r.Submit
		if r.Submit < first {
			first = r.Submit
		}
		if r.Submit > last {
			last = r.Submit
		}
		run.add(float64(r.RunTime))
		procs.add(float64(r.Procs()))
		if r.Procs() > s.MaxProcs {
			s.MaxProcs = r.Procs()
		}
		if r.HasEstimate() && r.RunTime > 0 {
			s.WithEstimate++
			over.add(float64(r.ReqTime) / float64(r.RunTime))
			if r.RunTime > r.ReqTime {
				s.Underestimated++
			}
		}
	}
	s.MeanInterarrival = inter.mean()
	s.MeanRunTime = run.mean()
	s.MeanProcs = procs.mean()
	s.MeanOverestimate = over.mean()
	s.Span = last - first
	return s
}

// sim2 is a tiny local mean accumulator so this package does not depend on
// internal/sim.
type sim2 struct {
	n   int
	sum float64
}

func (a *sim2) add(x float64) { a.n++; a.sum += x }
func (a *sim2) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}
