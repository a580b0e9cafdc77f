// Package span provides lightweight per-request tracing for the
// admission serving path. A Span records one request's journey through
// the serving pipeline as a fixed set of contiguous stage durations —
// queue wait, WAL append, the covering group-commit fsync, virtual-time
// advance, policy decide, ack — so that the stages of a finished span
// sum to (approximately) its total wall time and latency can be
// attributed without gaps.
//
// Spans are collected by a Recorder: a lock-free ring buffer of
// atomic.Pointer slots split into a small number of sub-rings to spread
// writer contention. A nil *Recorder is valid and records nothing, so
// the serving hot path pays a single nil check — and zero allocations —
// when tracing is disabled.
//
// The writer side relies on a publication discipline rather than
// locking: a Span is fully populated by exactly one goroutine at a time
// (ownership is handed off through the serving pipeline's channels,
// which establish happens-before), and only after the final field is
// written is the pointer Store'd into a slot. Readers only ever Load
// pointers, so every Span a reader observes is immutable.
package span

import (
	"sort"
	"sync/atomic"
	"time"
)

// Stage identifies one segment of a request's path through the serving
// pipeline. Stages are contiguous in time for a request that reaches
// the apply worker: Prep ends when the request is enqueued, Queue when
// it is dequeued, and so on through Ack. Refused requests (shed, quota,
// queue-full) carry only Prep.
type Stage uint8

const (
	// StagePrep covers handler entry to enqueue: JSON decode,
	// validation, shed-ladder check, quota take.
	StagePrep Stage = iota
	// StageQueue is the bounded-queue wait: enqueue to dequeue by the
	// apply worker (or durable decide worker).
	StageQueue
	// StageGather is the durable group-commit gather window: dequeue to
	// the start of the batch decide. Zero in non-durable mode.
	StageGather
	// StageAppend is the WAL record marshal + Append call for this op.
	// Zero in non-durable mode.
	StageAppend
	// StageAdvance is the virtual-time advance that ran ahead of this
	// op's decision: every believed completion at or before the op's
	// time, fired in order on the one event calendar.
	StageAdvance
	// StageDecide is the policy decision + state mutation inside the
	// apply critical section, excluding the advance.
	StageDecide
	// StageCommit is the durability wait: decision made to covered by a
	// group-commit fsync (including deferred-audit write). Zero in
	// non-durable mode.
	StageCommit
	// StageAck is the response path: answer handed back to the HTTP
	// handler to response written.
	StageAck

	// NumStages is the number of stages; Span.Dur is indexed by Stage.
	NumStages int = iota
)

var stageNames = [NumStages]string{
	"prep", "queue", "gather", "append", "advance", "decide", "commit", "ack",
}

// String returns the short lower-case stage name used in metrics and
// wire JSON ("prep", "queue", ...).
func (st Stage) String() string {
	if int(st) < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// Names returns the stage names in pipeline order. The slice is freshly
// allocated; callers may modify it.
func Names() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// Span is one request's trace through the serving pipeline. All fields
// are written before the span is handed to Recorder.Record and never
// mutated afterwards.
type Span struct {
	// Seq is the op sequence number assigned by the apply worker; zero
	// for requests refused before reaching it.
	Seq int
	// Kind is the op kind: "admit" or "node".
	Kind string
	// Tenant is the requesting tenant ("" if the request carried none).
	Tenant string
	// T is the virtual time the op applied at; zero for refusals.
	T float64
	// Outcome classifies how the request left the pipeline: "accepted",
	// "rejected", "applied" (node ops), or a refusal reason —
	// "shed-class", "shed-all", "quota", "queue-full", "draining",
	// "timeout", "wal-failed".
	Outcome string
	// ShedLevel is the shed-ladder level observed at admission time.
	ShedLevel int
	// WALIndex is the WAL record index this op was appended at; zero
	// when not durable or refused.
	WALIndex uint64
	// Start is the wall-clock handler entry time.
	Start time.Time
	// Total is the wall time from handler entry to response written.
	Total time.Duration
	// Dur holds per-stage durations indexed by Stage. Stages that did
	// not run are zero.
	Dur [NumStages]time.Duration
}

// JSON is the wire form of a Span, used by /debug/spans, span JSONL
// files, and cmd/servetrace.
type JSON struct {
	Seq       int                `json:"seq,omitempty"`
	Kind      string             `json:"kind"`
	Tenant    string             `json:"tenant,omitempty"`
	T         float64            `json:"t,omitempty"`
	Outcome   string             `json:"outcome"`
	ShedLevel int                `json:"shed_level,omitempty"`
	WALIndex  uint64             `json:"wal_index,omitempty"`
	StartNano int64              `json:"start_unix_nano"`
	TotalSec  float64            `json:"total_s"`
	Stages    map[string]float64 `json:"stages,omitempty"`
}

// Wire converts a Span to its JSON wire form. Only stages with nonzero
// duration appear in Stages.
func (sp *Span) Wire() JSON {
	j := JSON{
		Seq:       sp.Seq,
		Kind:      sp.Kind,
		Tenant:    sp.Tenant,
		T:         sp.T,
		Outcome:   sp.Outcome,
		ShedLevel: sp.ShedLevel,
		WALIndex:  sp.WALIndex,
		StartNano: sp.Start.UnixNano(),
		TotalSec:  sp.Total.Seconds(),
	}
	for i, d := range sp.Dur {
		if d > 0 {
			if j.Stages == nil {
				j.Stages = make(map[string]float64, NumStages)
			}
			j.Stages[stageNames[i]] = d.Seconds()
		}
	}
	return j
}

// Payload is the wire shape of the /debug/spans endpoint, shared with
// cmd/servetrace so the analyzer can ingest the endpoint's output
// directly.
type Payload struct {
	// Enabled reports whether span recording is on for this server.
	Enabled bool `json:"enabled"`
	// Count is the number of spans currently held in the ring.
	Count int `json:"count"`
	// Recorded is the total number of spans ever recorded (the ring
	// holds only the most recent Count of them).
	Recorded uint64 `json:"recorded"`
	// Spans is the recent-spans window, oldest first.
	Spans []JSON `json:"spans,omitempty"`
	// SlowestTotal is the slowest-K spans in the ring by total wall
	// time, slowest first.
	SlowestTotal []JSON `json:"slowest_total,omitempty"`
	// SlowestByStage maps each stage name to the slowest-K spans by
	// that stage's duration, slowest first. Stages with no nonzero
	// observations are absent.
	SlowestByStage map[string][]JSON `json:"slowest_by_stage,omitempty"`
}

// subRings is the number of independent rings a Recorder shards its
// slots across. Writers pick a ring round-robin off a shared atomic
// counter, so concurrent recorders mostly hit different cache lines.
const subRings = 4

type ring struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Span]
}

// Recorder is a lock-free bounded buffer of the most recently recorded
// spans. A nil Recorder is valid: Record is a no-op and Snapshot
// returns nil, so disabled tracing costs one pointer comparison.
type Recorder struct {
	next  atomic.Uint64
	rings [subRings]ring
}

// NewRecorder returns a Recorder holding roughly buffer spans (rounded
// up so each sub-ring is a power of two, minimum 16 slots per ring).
// buffer <= 0 selects the default of 4096.
func NewRecorder(buffer int) *Recorder {
	if buffer <= 0 {
		buffer = 4096
	}
	per := 16
	for per < (buffer+subRings-1)/subRings {
		per <<= 1
	}
	r := &Recorder{}
	for i := range r.rings {
		r.rings[i].slots = make([]atomic.Pointer[Span], per)
	}
	return r
}

// Cap returns the total slot capacity across sub-rings (0 for nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return subRings * len(r.rings[0].slots)
}

// Len returns how many spans the ring currently holds (0 for nil),
// without materializing a snapshot.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.rings {
		p := r.rings[i].pos.Load()
		if p > uint64(len(r.rings[i].slots)) {
			p = uint64(len(r.rings[i].slots))
		}
		n += int(p)
	}
	return n
}

// Recorded returns the total number of spans ever recorded (0 for nil).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Record publishes a finished span into the ring, overwriting the
// oldest entry of the chosen sub-ring when full. The span must not be
// mutated after this call. Record on a nil Recorder is a no-op.
func (r *Recorder) Record(sp *Span) {
	if r == nil || sp == nil {
		return
	}
	i := r.next.Add(1) - 1
	rg := &r.rings[i%subRings]
	pos := rg.pos.Add(1) - 1
	rg.slots[pos&uint64(len(rg.slots)-1)].Store(sp)
}

// Snapshot returns the spans currently in the ring, oldest first (by
// Start time, ties broken by Seq). Concurrent Record calls may overwrite
// slots while Snapshot runs; each loaded pointer is still a fully
// published, immutable span.
func (r *Recorder) Snapshot() []*Span {
	if r == nil {
		return nil
	}
	out := make([]*Span, 0, r.Cap())
	for i := range r.rings {
		rg := &r.rings[i]
		for j := range rg.slots {
			if sp := rg.slots[j].Load(); sp != nil {
				out = append(out, sp)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Start.Equal(out[b].Start) {
			return out[a].Start.Before(out[b].Start)
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}
