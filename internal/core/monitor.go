package core

import (
	"fmt"

	"clustersched/internal/cluster"
	"clustersched/internal/sim"
)

// MonitorSample is one periodic observation of a time-shared cluster.
type MonitorSample struct {
	Time float64
	// Utilization is the mean allocated capacity across nodes (0..1).
	Utilization float64
	// RunningJobs is the number of executing jobs.
	RunningJobs int
	// BusyNodes is the number of nodes with at least one slice.
	BusyNodes int
	// MeanSigma is the mean risk of deadline delay (eq. 6) over all
	// nodes, evaluated with no candidate — the cluster's live risk level.
	// Note σ of a node holding a single delayed job is 0 (no spread);
	// MeanMu and DelayedJobs catch that case.
	MeanSigma float64
	// MeanMu is the mean of the nodes' mean deadline delay µ (eq. 5);
	// 1 means no job anywhere is predicted to be delayed.
	MeanMu float64
	// DelayedJobs counts slices whose predicted completion exceeds their
	// deadline right now.
	DelayedJobs int
	// ZeroRiskNodes counts nodes whose σ is currently zero.
	ZeroRiskNodes int
	// DownNodes counts crashed nodes. Down nodes are excluded from every
	// other aggregate in the sample — a dead node contributes no
	// utilization, no predictions, and no risk, instead of poisoning the
	// baselines with stale or vacuous values.
	DownNodes int
}

// Monitor samples a time-shared cluster at a fixed interval for the
// duration of a simulation, producing the time series the paper's risk
// argument is about: watch MeanSigma spike exactly when inaccurate
// estimates have poisoned nodes.
type Monitor struct {
	Cluster  *cluster.TimeShared
	Interval float64
	// Limit stops sampling after this many samples (a safety valve; 0
	// means 1e6).
	Limit int

	samples []MonitorSample

	// cache holds each node's last baseline (no-candidate) fluid
	// prediction, keyed on the node's state version. A node whose version
	// is unchanged since the previous tick is only re-simulated when its
	// prediction is time-dependent (see PSNode.PredictionStable);
	// otherwise the cached absolute finish times are reused and only the
	// deadline-delay impacts, which depend on the sampling instant, are
	// re-derived.
	cache []baselineCache
	// dds is the scratch buffer for per-node deadline-delay values.
	dds []float64
}

// baselineCache is one node's cached baseline prediction.
type baselineCache struct {
	valid   bool
	version uint64
	time    float64
	stable  bool
	preds   []cluster.PredictedDelay
}

// baseline returns node i's no-candidate predictions at time now, reusing
// the cached copy when the node's version proves it is still current.
func (m *Monitor) baseline(i int, node *cluster.PSNode, now float64) []cluster.PredictedDelay {
	if m.cache == nil {
		m.cache = make([]baselineCache, m.Cluster.Len())
	}
	ent := &m.cache[i]
	if ent.valid && ent.version == node.Version() &&
		(ent.stable || ent.time == now) {
		return ent.preds
	}
	preds := node.PredictDelaysScratch(now, nil)
	ent.preds = append(ent.preds[:0], preds...)
	ent.valid = true
	ent.version = node.Version()
	ent.time = now
	ent.stable = node.PredictionStable()
	return ent.preds
}

// NewMonitor creates a monitor; call Start before Engine.Run.
func NewMonitor(c *cluster.TimeShared, interval float64) (*Monitor, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: monitor interval %g, want > 0", interval)
	}
	return &Monitor{Cluster: c, Interval: interval}, nil
}

// Start schedules the first sample. Sampling re-arms itself only while
// jobs are in the system or the calendar is non-empty, so it cannot keep
// an otherwise-finished simulation alive forever.
func (m *Monitor) Start(e *sim.Engine) {
	e.At(e.Now(), sim.PriorityMonitor, m.tick)
}

func (m *Monitor) tick(e *sim.Engine) {
	m.samples = append(m.samples, m.sample(e.Now()))
	limit := m.Limit
	if limit == 0 {
		limit = 1_000_000
	}
	if len(m.samples) >= limit {
		return
	}
	// Keep sampling only while something else is pending: the monitor's
	// own event is the only one left when the workload has drained.
	if e.Pending() > 0 {
		e.After(m.Interval, sim.PriorityMonitor, m.tick)
	}
}

func (m *Monitor) sample(now float64) MonitorSample {
	s := MonitorSample{Time: now, RunningJobs: m.Cluster.Running()}
	n := m.Cluster.Len()
	var utilSum, sigmaSum, muSum float64
	muNodes := 0
	upNodes := 0
	for i := 0; i < n; i++ {
		node := m.Cluster.Node(i)
		if node.Down() {
			s.DownNodes++
			continue
		}
		upNodes++
		utilSum += node.Utilization()
		if node.NumSlices() > 0 {
			s.BusyNodes++
		}
		preds := m.baseline(i, node, now)
		if cap(m.dds) < len(preds) {
			m.dds = make([]float64, len(preds))
		}
		dds := m.dds[:len(preds)]
		for j, pr := range preds {
			dds[j] = cluster.DeadlineDelay(pr.Delay, pr.AbsDeadline-now)
			if pr.Delay > 0 {
				s.DelayedJobs++
			}
		}
		mu, sigma := RiskOfDelay(dds)
		sigmaSum += sigma
		if len(dds) > 0 {
			muSum += mu
			muNodes++
		} else {
			// An empty node has no delays: its µ is the ideal 1.
			muSum++
			muNodes++
		}
		if ZeroRisk(sigma) {
			s.ZeroRiskNodes++
		}
	}
	if upNodes > 0 {
		s.Utilization = utilSum / float64(upNodes)
		s.MeanSigma = sigmaSum / float64(upNodes)
	}
	if muNodes > 0 {
		s.MeanMu = muSum / float64(muNodes)
	}
	return s
}

// Samples returns the collected time series.
func (m *Monitor) Samples() []MonitorSample { return m.samples }
