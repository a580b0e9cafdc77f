// Command servetrace analyzes serving-path request spans from the
// admission server (cmd/admissiond with -spans): the JSON payload of
// GET /debug/spans, or a JSONL stream of individual spans. It is the
// serving-side sibling of cmd/tracedump, which reads simulation traces.
//
// For each pipeline stage (prep, queue, gather, append, advance,
// decide, commit, ack) it prints count, p50/p90/p99/max latency, and
// the stage's share of total traced wall time; then a critical-path
// attribution — for each request, which stage dominated — so "the p99
// is fsync wait, not queueing" is one command away. The coverage line
// reports how much of the traced wall time the named stages explain;
// -min-coverage turns it into a gate that exits nonzero below the
// floor (the repo's acceptance bar is 0.95).
//
// -chrome exports the spans as a Chrome trace_event document: one
// track per stage, each request's stages laid end-to-end from its
// start timestamp, so the WAL group-commit pipeline overlap (the
// append of one batch riding under the fsync of the previous) is
// visible in chrome://tracing or Perfetto.
//
// Examples:
//
//	curl -s localhost:8080/debug/spans?n=1024 | servetrace -
//	servetrace -min-coverage 0.95 spans.json
//	servetrace -tenant acme -outcome quota spans.json
//	servetrace -chrome pipeline.json spans.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"clustersched/internal/obs"
	"clustersched/internal/obs/span"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servetrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("servetrace", flag.ContinueOnError)
	tenant := fs.String("tenant", "", "only spans of this tenant")
	outcome := fs.String("outcome", "", "only spans with this outcome (e.g. accepted, quota, shed-all)")
	kind := fs.String("kind", "", "only spans of this kind (admit or node)")
	top := fs.Int("top", 5, "how many slowest requests to list")
	minCoverage := fs.Float64("min-coverage", 0, "exit nonzero unless stages attribute at least this fraction of traced wall time")
	chromePath := fs.String("chrome", "", "write a Chrome trace_event `file` of the span pipeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input: pass span files (/debug/spans JSON or span JSONL), or - for stdin")
	}
	var spans []span.JSON
	for _, path := range fs.Args() {
		got, err := readSpans(path)
		if err != nil {
			return err
		}
		spans = append(spans, got...)
	}
	total := len(spans)
	spans = filterSpans(spans, *tenant, *outcome, *kind)
	if len(spans) == 0 {
		return fmt.Errorf("no spans matched (%d read)", total)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNano < spans[j].StartNano })

	coverage := report(stdout, spans, total, *top)
	if *chromePath != "" {
		if err := writeChrome(*chromePath, spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nchrome trace: %s (%d spans)\n", *chromePath, len(spans))
	}
	if coverage < *minCoverage {
		return fmt.Errorf("stage coverage %.1f%% below floor %.1f%%", coverage*100, *minCoverage*100)
	}
	return nil
}

// readSpans loads one input: a span.Payload document (the /debug/spans
// response — detected by its leading '{'), or a JSONL stream with one
// span.JSON per line. "-" reads stdin.
func readSpans(path string) ([]span.JSON, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	br := bufio.NewReader(r)
	first, err := firstByte(br)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if first == '{' {
		// Distinguish a payload document from single-span JSONL by the
		// first decoded object: a payload has no "outcome".
		dec := json.NewDecoder(br)
		var raw map[string]json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if _, isSpan := raw["outcome"]; !isSpan {
			return decodePayload(path, raw)
		}
		// JSONL: re-decode the first object as a span, then stream.
		var sp span.JSON
		if err := reunmarshal(raw, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans := []span.JSON{sp}
		for {
			var sp span.JSON
			if err := dec.Decode(&sp); err == io.EOF {
				return spans, nil
			} else if err != nil {
				return nil, fmt.Errorf("%s: span %d: %w", path, len(spans)+1, err)
			}
			spans = append(spans, sp)
		}
	}
	return nil, fmt.Errorf("%s: not a span payload or JSONL (starts with %q)", path, first)
}

func firstByte(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return 0, err
		}
		return b, nil
	}
}

// decodePayload extracts every span list a /debug/spans payload
// carries, deduplicating by (start, seq, kind) since the slowest-K
// lists repeat members of the recent window.
func decodePayload(path string, raw map[string]json.RawMessage) ([]span.JSON, error) {
	var p span.Payload
	if err := reunmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	type key struct {
		start int64
		seq   int
		kind  string
	}
	seen := make(map[key]bool)
	var spans []span.JSON
	add := func(list []span.JSON) {
		for _, sp := range list {
			k := key{sp.StartNano, sp.Seq, sp.Kind}
			if !seen[k] {
				seen[k] = true
				spans = append(spans, sp)
			}
		}
	}
	add(p.Spans)
	add(p.SlowestTotal)
	for _, list := range p.SlowestByStage {
		add(list)
	}
	if len(spans) == 0 && !p.Enabled {
		return nil, fmt.Errorf("%s: spans disabled on the server (run admissiond with -spans)", path)
	}
	return spans, nil
}

// reunmarshal round-trips an already-decoded raw object into dst.
func reunmarshal(raw map[string]json.RawMessage, dst any) error {
	b, err := json.Marshal(raw)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, dst)
}

func filterSpans(spans []span.JSON, tenant, outcome, kind string) []span.JSON {
	out := spans[:0]
	for _, sp := range spans {
		if tenant != "" && sp.Tenant != tenant {
			continue
		}
		if outcome != "" && sp.Outcome != outcome {
			continue
		}
		if kind != "" && sp.Kind != kind {
			continue
		}
		out = append(out, sp)
	}
	return out
}

// report prints the stage table, critical-path attribution and slowest
// requests, returning the stage coverage fraction.
func report(w io.Writer, spans []span.JSON, read, top int) float64 {
	names := span.Names()
	byStage := make(map[string][]float64, len(names))
	stageSum := make(map[string]float64, len(names))
	domCount := make(map[string]int, len(names))
	domSum := make(map[string]float64, len(names))
	var totalWall, coveredWall float64
	for _, sp := range spans {
		totalWall += sp.TotalSec
		domStage, domV := "", -1.0
		var sum float64
		for st, v := range sp.Stages {
			byStage[st] = append(byStage[st], v)
			stageSum[st] += v
			sum += v
			if v > domV {
				domStage, domV = st, v
			}
		}
		coveredWall += sum
		if domStage != "" {
			domCount[domStage]++
			domSum[domStage] += sp.TotalSec
		}
	}

	fmt.Fprintf(w, "spans: %d analyzed of %d read, %s traced wall time\n\n", len(spans), read, fmtDur(totalWall))
	fmt.Fprintf(w, "%-8s %7s %10s %10s %10s %10s %7s\n", "stage", "count", "p50", "p90", "p99", "max", "share")
	for _, st := range names {
		vals := byStage[st]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		share := 0.0
		if totalWall > 0 {
			share = stageSum[st] / totalWall
		}
		fmt.Fprintf(w, "%-8s %7d %10s %10s %10s %10s %6.1f%%\n",
			st, len(vals),
			fmtDur(quantile(vals, 0.50)), fmtDur(quantile(vals, 0.90)),
			fmtDur(quantile(vals, 0.99)), fmtDur(vals[len(vals)-1]), share*100)
	}

	fmt.Fprintf(w, "\ncritical path (dominant stage per request):\n")
	for _, st := range names {
		if domCount[st] == 0 {
			continue
		}
		share := 0.0
		if totalWall > 0 {
			share = domSum[st] / totalWall
		}
		fmt.Fprintf(w, "  %-8s dominates %5d requests (%5.1f%% of traced time)\n", st, domCount[st], share*100)
	}

	coverage := 1.0
	if totalWall > 0 {
		coverage = coveredWall / totalWall
	}
	fmt.Fprintf(w, "\ncoverage: stages attribute %.1f%% of traced wall time\n", coverage*100)

	if top > 0 {
		slow := append([]span.JSON(nil), spans...)
		sort.SliceStable(slow, func(i, j int) bool { return slow[i].TotalSec > slow[j].TotalSec })
		if len(slow) > top {
			slow = slow[:top]
		}
		fmt.Fprintf(w, "\nslowest %d requests:\n", len(slow))
		for _, sp := range slow {
			extra := ""
			if sp.WALIndex > 0 {
				extra = fmt.Sprintf(" wal=%d", sp.WALIndex)
			}
			fmt.Fprintf(w, "  %10s %-6s %-10s tenant=%s%s %s\n",
				fmtDur(sp.TotalSec), sp.Kind, sp.Outcome, orNone(sp.Tenant), extra, stageBreakdown(sp))
		}
	}
	return coverage
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func orNone(tenant string) string {
	if tenant == "" {
		return "none"
	}
	return tenant
}

// stageBreakdown renders a span's nonzero stages in pipeline order.
func stageBreakdown(sp span.JSON) string {
	var b strings.Builder
	for _, st := range span.Names() {
		if v, ok := sp.Stages[st]; ok {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%s", st, fmtDur(v))
		}
	}
	return b.String()
}

// fmtDur renders seconds with an adaptive unit.
func fmtDur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s > 0:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
	return "0"
}

// writeChrome lays each span's stages end-to-end from its start
// timestamp, one track (tid) per stage, so concurrent requests overlap
// vertically: the WAL pipeline shows as append events riding under the
// previous batch's commit (fsync) events.
func writeChrome(path string, spans []span.JSON) error {
	names := span.Names()
	track := make(map[string]int, len(names))
	out := []obs.ChromeEvent{{Name: "process_name", Phase: "M", Pid: 1,
		Args: map[string]any{"name": "admissiond serving path"}}}
	for i, st := range names {
		track[st] = i + 1
		out = append(out, obs.ChromeEvent{Name: "thread_name", Phase: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": st}})
	}
	base := spans[0].StartNano
	for _, sp := range spans {
		ts := float64(sp.StartNano-base) / 1e3 // ns -> µs
		for _, st := range names {
			v, ok := sp.Stages[st]
			if !ok {
				continue
			}
			args := map[string]any{"seq": sp.Seq, "outcome": sp.Outcome}
			if sp.Tenant != "" {
				args["tenant"] = sp.Tenant
			}
			if sp.WALIndex > 0 {
				args["wal_index"] = sp.WALIndex
			}
			out = append(out, obs.ChromeEvent{
				Name:  st,
				Phase: "X",
				Ts:    ts,
				Dur:   v * 1e6,
				Pid:   1,
				Tid:   track[st],
				Args:  args,
			})
			ts += v * 1e6
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeEvents(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
