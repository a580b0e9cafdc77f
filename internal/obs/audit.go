package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// JSONFloat is a float64 whose JSON encoding survives non-finite values,
// which encoding/json rejects outright: ±Inf and NaN encode as strings.
// Libra's required-share computation legitimately yields +Inf for a node
// that cannot finish the job before its deadline.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both plain numbers
// and the string spellings MarshalJSON produces.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		case "NaN":
			*f = JSONFloat(math.NaN())
		default:
			return fmt.Errorf("obs: invalid non-finite float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// NodeEval records how one candidate node scored during an admission
// decision. Sigma and Mu are the node's delay distribution parameters
// (LibraRisk); Share is the fluid share the job would need on that node
// (Libra, and LibraRisk in best/worst-fit or exhaustive mode). Suitable
// says whether the node passed the policy's test; Down marks nodes
// skipped because they were crashed.
type NodeEval struct {
	Node     int       `json:"node"`
	Sigma    float64   `json:"sigma"`
	Mu       float64   `json:"mu"`
	Share    JSONFloat `json:"share,omitempty"`
	Suitable bool      `json:"suitable"`
	Down     bool      `json:"down,omitempty"`
}

// Decision is one admission-control decision: the job's requirements,
// every candidate node examined with its score, and the outcome. Seq
// orders decisions within a run; Resubmit marks re-admissions of jobs
// killed by node crashes.
type Decision struct {
	Seq      uint64     `json:"seq"`
	Time     float64    `json:"t"`
	Run      string     `json:"run,omitempty"`
	Policy   string     `json:"policy,omitempty"`
	Job      int        `json:"job"`
	NumProc  int        `json:"numproc"`
	Estimate float64    `json:"estimate"`
	Deadline float64    `json:"deadline"`
	Accepted bool       `json:"accepted"`
	Reason   string     `json:"reason,omitempty"`
	Chosen   []int      `json:"chosen,omitempty"`
	Nodes    []NodeEval `json:"nodes,omitempty"`
	Resubmit bool       `json:"resubmit,omitempty"`
}

// AuditLog accumulates admission decisions for one run. Policies build a
// decision incrementally — Begin, then Node per candidate, then Accept or
// Reject — so the hot path never assembles a record it would throw away.
// Like Buffer, an AuditLog is confined to one run on one goroutine.
type AuditLog struct {
	run       string
	policy    string
	seq       uint64
	cur       Decision
	open      bool
	decisions []Decision
}

// NewAuditLog returns an empty log stamping decisions with the given run
// tag and policy name.
func NewAuditLog(run, policy string) *AuditLog {
	return &AuditLog{run: run, policy: policy}
}

// Begin opens a decision record for one admission attempt.
func (a *AuditLog) Begin(time float64, job, numProc int, estimate, absDeadline float64, resubmit bool) {
	a.seq++
	a.cur = Decision{
		Seq:      a.seq,
		Time:     time,
		Run:      a.run,
		Policy:   a.policy,
		Job:      job,
		NumProc:  numProc,
		Estimate: estimate,
		Deadline: absDeadline,
		Resubmit: resubmit,
	}
	a.open = true
}

// Node appends one candidate evaluation to the open decision.
func (a *AuditLog) Node(ev NodeEval) {
	if !a.open {
		return
	}
	a.cur.Nodes = append(a.cur.Nodes, ev)
}

// Accept closes the open decision as accepted on the given nodes. The
// slice is copied; callers may reuse it.
func (a *AuditLog) Accept(chosen []int) {
	if !a.open {
		return
	}
	a.cur.Accepted = true
	a.cur.Chosen = append([]int(nil), chosen...)
	a.decisions = append(a.decisions, a.cur)
	a.cur = Decision{}
	a.open = false
}

// Reject closes the open decision as rejected for the given reason.
func (a *AuditLog) Reject(reason string) {
	if !a.open {
		return
	}
	a.cur.Accepted = false
	a.cur.Reason = reason
	a.decisions = append(a.decisions, a.cur)
	a.cur = Decision{}
	a.open = false
}

// Decisions returns the recorded decisions in order. The slice aliases
// the log's storage.
func (a *AuditLog) Decisions() []Decision { return a.decisions }

// Len returns the number of recorded decisions.
func (a *AuditLog) Len() int { return len(a.decisions) }

// Drain returns the decisions recorded since the last Drain and empties
// the log without disturbing its sequence numbering, so a long-running
// service can stream decisions to disk incrementally instead of holding
// an unbounded history in memory. The returned slice is owned by the
// caller; the log starts a fresh backing array.
func (a *AuditLog) Drain() []Decision {
	d := a.decisions
	a.decisions = nil
	return d
}

// WriteAuditJSONL writes decisions as line-delimited JSON.
func WriteAuditJSONL(w io.Writer, decisions []Decision) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range decisions {
		if err := enc.Encode(&decisions[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAuditJSONL parses a line-delimited decision stream written by
// WriteAuditJSONL.
func ReadAuditJSONL(r io.Reader) ([]Decision, error) {
	dec := json.NewDecoder(r)
	var out []Decision
	for {
		var d Decision
		if err := dec.Decode(&d); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: audit line %d: %w", len(out)+1, err)
		}
		out = append(out, d)
	}
}
