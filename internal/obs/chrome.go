package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes events as line-delimited JSON, one Event per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a line-delimited event stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// ChromeEvent is one record of the Chrome trace_event format (the subset
// chrome://tracing and Perfetto consume).
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds, "X" only
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// simSecondsToMicros converts simulated seconds to trace microseconds.
const simSecondsToMicros = 1e6

// WriteChromeTrace renders events in the Chrome trace_event JSON format.
// Each distinct run tag becomes a process (named via "M" metadata);
// within a run, KindStart..KindFinish/KindKill pairs for the same job
// become "X" complete spans on the track (tid) of the job's first node,
// and every other event becomes an "i" instant. Simulated seconds map to
// trace microseconds, so chrome://tracing's millisecond display reads as
// kiloseconds of simulated time.
func WriteChromeTrace(w io.Writer, events []Event) error {
	pids := make(map[string]int)
	var out []ChromeEvent
	pidOf := func(run string) int {
		if p, ok := pids[run]; ok {
			return p
		}
		p := len(pids) + 1
		pids[run] = p
		name := run
		if name == "" {
			name = "run"
		}
		out = append(out, ChromeEvent{
			Name:  "process_name",
			Phase: "M",
			Pid:   p,
			Args:  map[string]any{"name": name},
		})
		return p
	}

	type spanKey struct {
		run string
		job int
	}
	starts := make(map[spanKey]Event)

	for _, ev := range events {
		pid := pidOf(ev.Run)
		switch ev.Kind {
		case KindStart:
			starts[spanKey{ev.Run, ev.Job}] = ev
		case KindFinish, KindKill:
			k := spanKey{ev.Run, ev.Job}
			if st, ok := starts[k]; ok {
				delete(starts, k)
				args := map[string]any{"job": ev.Job, "end": ev.Kind.String()}
				if ev.Value != 0 {
					args["value"] = ev.Value
				}
				out = append(out, ChromeEvent{
					Name:  fmt.Sprintf("job %d", ev.Job),
					Phase: "X",
					Ts:    st.Time * simSecondsToMicros,
					Dur:   (ev.Time - st.Time) * simSecondsToMicros,
					Pid:   pid,
					Tid:   st.Node,
					Args:  args,
				})
				continue
			}
			fallthrough
		default:
			args := map[string]any{}
			if ev.Job >= 0 {
				args["job"] = ev.Job
			}
			if ev.Value != 0 {
				args["value"] = ev.Value
			}
			if ev.Detail != "" {
				args["detail"] = ev.Detail
			}
			tid := ev.Node
			if tid < 0 {
				tid = 0
			}
			out = append(out, ChromeEvent{
				Name:  ev.Kind.String(),
				Phase: "i",
				Ts:    ev.Time * simSecondsToMicros,
				Pid:   pid,
				Tid:   tid,
				Scope: "t",
				Args:  args,
			})
		}
	}

	// A start without a matching end (job still running at horizon) still
	// deserves a mark; render it as an instant so nothing is silently lost.
	for _, st := range starts {
		out = append(out, ChromeEvent{
			Name:  fmt.Sprintf("job %d (unfinished)", st.Job),
			Phase: "i",
			Ts:    st.Time * simSecondsToMicros,
			Pid:   pids[st.Run],
			Tid:   st.Node,
			Scope: "t",
			Args:  map[string]any{"job": st.Job},
		})
	}

	return WriteChromeEvents(w, out)
}

// WriteChromeEvents writes events as one indented Chrome trace_event
// document with a millisecond display unit. It is the encoder behind
// WriteChromeTrace and every other Chrome export in the repo.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace parses a Chrome trace written by WriteChromeTrace
// and returns the number of trace events, rejecting records with unknown
// phases or negative durations. Used by smoke tests and cmd/tracedump.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var t chromeTrace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return 0, fmt.Errorf("obs: chrome trace: %w", err)
	}
	for i, ev := range t.TraceEvents {
		switch ev.Phase {
		case "X", "i", "M":
		default:
			return 0, fmt.Errorf("obs: chrome trace event %d: unknown phase %q", i, ev.Phase)
		}
		if ev.Dur < 0 {
			return 0, fmt.Errorf("obs: chrome trace event %d: negative duration %g", i, ev.Dur)
		}
	}
	return len(t.TraceEvents), nil
}
