package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Counter is a monotonically increasing metric. Not synchronized: the
// simulation engine is single-goroutine, and sweep workers each own a
// private Registry merged after the fact.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d, which must be non-negative.
func (c *Counter) Add(d float64) { c.v += d }

// Set replaces the count with v, a cumulative total kept elsewhere (an
// atomic, a log's own metrics). Such a total never falls, so the counter
// stays monotone.
func (c *Counter) Set(v float64) { c.v = v }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a point-in-time metric.
type Gauge struct {
	v float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets chosen at
// construction. Observations beyond the last upper bound land in the
// implicit +Inf bucket. No locks, no dynamic resizing: Observe is a
// linear scan over a handful of bounds and two adds.
//
// A histogram may carry at most one exemplar — a labeled sample value
// (e.g. the WAL index of the slowest recent fsync) attached to the
// bucket that contains it in the Prometheus exposition, OpenMetrics
// style. Exemplars are optional; output is byte-identical to the
// pre-exemplar format when none is set.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64

	exKey   string
	exVal   string
	exValue float64
	exSet   bool
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// SetExemplar attaches (or replaces) the histogram's exemplar: an
// observed value v annotated with a single label, rendered on v's
// bucket line in the Prometheus exposition. Callers typically pass the
// most interesting recent observation (e.g. the slowest).
func (h *Histogram) SetExemplar(key, val string, v float64) {
	h.exKey, h.exVal, h.exValue, h.exSet = key, val, v, true
}

// Exemplar returns the current exemplar, if any.
func (h *Histogram) Exemplar() (key, val string, v float64, ok bool) {
	return h.exKey, h.exVal, h.exValue, h.exSet
}

// Absorb folds other's observations (and exemplar, preferring the
// larger value) into h. The bucket bounds must match exactly.
func (h *Histogram) Absorb(other *Histogram) error {
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: histogram bucket count mismatch: %d vs %d", len(h.bounds), len(other.bounds))
	}
	for i, b := range h.bounds {
		if b != other.bounds[i] {
			return fmt.Errorf("obs: histogram bound %d mismatch: %g vs %g", i, b, other.bounds[i])
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.sum += other.sum
	h.count += other.count
	if other.exSet && (!h.exSet || other.exValue > h.exValue) {
		h.SetExemplar(other.exKey, other.exVal, other.exValue)
	}
	return nil
}

// Reset zeroes the histogram's observations and drops its exemplar,
// keeping the bucket bounds. Used by scrape-time delta folding: a
// collector histogram is Absorb'ed into an exported one, then Reset.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum, h.count = 0, 0
	h.exKey, h.exVal, h.exValue, h.exSet = "", "", 0, false
}

// NewHistogram returns a standalone (unregistered) histogram with the
// given ascending upper bounds — the building block for collectors that
// aggregate under their own lock and fold into a Registry at scrape.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// instrumentKind discriminates the registry's instrument table.
type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
)

// CounterVec is a family of counters keyed by the value of a single
// label (e.g. serve_tenant_admits_total{tenant="..."}). Children are
// created on first use; cardinality control is the caller's job (the
// serving layer folds excess tenants into an "other" bucket before the
// label reaches the registry).
type CounterVec struct {
	label    string
	children map[string]*Counter
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *Counter {
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Len returns the number of child counters.
func (v *CounterVec) Len() int { return len(v.children) }

// sortedValues returns the child label values in sorted order, the
// deterministic export order.
func (v *CounterVec) sortedValues() []string {
	vals := make([]string, 0, len(v.children))
	for lv := range v.children {
		vals = append(vals, lv)
	}
	sort.Strings(vals)
	return vals
}

// instrument is one registered metric with its metadata.
type instrument struct {
	name string
	help string
	kind instrumentKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	vec  *CounterVec
}

// Registry owns a set of named instruments. Registration is idempotent:
// asking for an existing name of the same kind returns the same
// instrument, so pre-resolved bundles (SimMetrics) and ad-hoc lookups
// compose. Mismatched re-registration panics — it is always a wiring bug.
//
// A Registry is not synchronized; each simulation run owns one and
// completed registries merge across workers via Merge.
type Registry struct {
	by    map[string]*instrument
	order []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*instrument)}
}

func (r *Registry) lookup(name, help string, kind instrumentKind) *instrument {
	if in, ok := r.by[name]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return in
	}
	in := &instrument{name: name, help: help, kind: kind}
	r.by[name] = in
	r.order = append(r.order, in)
	return in
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	in := r.lookup(name, help, kindCounter)
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	in := r.lookup(name, help, kindGauge)
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending upper bounds. Later calls ignore the bounds
// argument (the first registration wins).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	in := r.lookup(name, help, kindHistogram)
	if in.h == nil {
		bs := append([]float64(nil), bounds...)
		in.h = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
	}
	return in.h
}

// CounterVec returns the named labeled counter family, creating it on
// first use with the given label name. Later calls must pass the same
// label (mismatch panics — it is always a wiring bug).
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	in := r.lookup(name, help, kindCounterVec)
	if in.vec == nil {
		in.vec = &CounterVec{label: label, children: make(map[string]*Counter)}
	}
	if in.vec.label != label {
		panic(fmt.Sprintf("obs: counter vec %q re-registered with label %q (was %q)", name, label, in.vec.label))
	}
	return in.vec
}

// Merge folds other into r: counters and histogram buckets sum, gauges
// take the maximum (the only commutative, worker-order-independent choice
// for point-in-time values). Instruments missing on either side are
// created/ignored as needed; histograms must share bucket bounds.
func (r *Registry) Merge(other *Registry) error {
	for _, in := range other.order {
		switch in.kind {
		case kindCounter:
			r.Counter(in.name, in.help).Add(in.c.v)
		case kindGauge:
			g := r.Gauge(in.name, in.help)
			if in.g.v > g.v {
				g.Set(in.g.v)
			}
		case kindHistogram:
			h := r.Histogram(in.name, in.help, in.h.bounds)
			if err := h.Absorb(in.h); err != nil {
				return fmt.Errorf("%v (histogram %q)", err, in.name)
			}
		case kindCounterVec:
			v := r.CounterVec(in.name, in.help, in.vec.label)
			for lv, c := range in.vec.children {
				v.With(lv).Add(c.v)
			}
		}
	}
	return nil
}

// sorted returns the instruments in name order, the deterministic export
// order regardless of registration interleaving across code paths.
func (r *Registry) sorted() []*instrument {
	out := append([]*instrument(nil), r.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// promFloat renders a float the way the Prometheus text format expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus exports the registry in the Prometheus text exposition
// format, instruments in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, in := range r.sorted() {
		typ := "counter"
		switch in.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		case kindCounterVec:
			typ = "counter"
		}
		if in.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", in.name, typ); err != nil {
			return err
		}
		var err error
		switch in.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %s\n", in.name, promFloat(in.c.v))
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", in.name, promFloat(in.g.v))
		case kindCounterVec:
			for _, lv := range in.vec.sortedValues() {
				if _, err = fmt.Fprintf(w, "%s{%s=%q} %s\n", in.name, in.vec.label, lv, promFloat(in.vec.children[lv].v)); err != nil {
					return err
				}
			}
		case kindHistogram:
			// The exemplar (if set) rides the first bucket that
			// contains its value, OpenMetrics style.
			exBucket := -1
			if in.h.exSet {
				exBucket = len(in.h.bounds)
				for i, b := range in.h.bounds {
					if in.h.exValue <= b {
						exBucket = i
						break
					}
				}
			}
			exemplar := func(i int) string {
				if i != exBucket {
					return ""
				}
				return fmt.Sprintf(" # {%s=%q} %s", in.h.exKey, in.h.exVal, promFloat(in.h.exValue))
			}
			cum := uint64(0)
			for i, b := range in.h.bounds {
				cum += in.h.counts[i]
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", in.name, promFloat(b), cum, exemplar(i)); err != nil {
					return err
				}
			}
			cum += in.h.counts[len(in.h.bounds)]
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n", in.name, cum, exemplar(len(in.h.bounds))); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", in.name, promFloat(in.h.sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", in.name, in.h.count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MetricSnapshot is the JSON form of one instrument.
type MetricSnapshot struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Histogram fields.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
}

// BucketSnapshot is one non-cumulative histogram bucket in JSON output;
// UpperBound is +Inf for the overflow bucket (rendered as "+Inf").
type BucketSnapshot struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// Snapshot returns the registry's instruments in name order.
func (r *Registry) Snapshot() []MetricSnapshot {
	out := make([]MetricSnapshot, 0, len(r.order))
	for _, in := range r.sorted() {
		s := MetricSnapshot{Name: in.name, Help: in.help}
		switch in.kind {
		case kindCounter:
			s.Type, s.Value = "counter", in.c.v
		case kindGauge:
			s.Type, s.Value = "gauge", in.g.v
		case kindHistogram:
			s.Type, s.Sum, s.Count = "histogram", in.h.sum, in.h.count
			for i, b := range in.h.bounds {
				s.Buckets = append(s.Buckets, BucketSnapshot{UpperBound: promFloat(b), Count: in.h.counts[i]})
			}
			s.Buckets = append(s.Buckets, BucketSnapshot{UpperBound: "+Inf", Count: in.h.counts[len(in.h.bounds)]})
		case kindCounterVec:
			// One snapshot entry per child, the full series name
			// embedded so consumers need no label-aware schema.
			for _, lv := range in.vec.sortedValues() {
				out = append(out, MetricSnapshot{
					Name:  fmt.Sprintf("%s{%s=%q}", in.name, in.vec.label, lv),
					Type:  "counter",
					Help:  in.help,
					Value: in.vec.children[lv].v,
				})
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON exports the registry as an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
