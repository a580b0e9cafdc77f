package core

import (
	"fmt"
	"io"

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
	// DisableCache turns off the per-node baseline prediction cache so
	// tests can compare cached against recomputed sample series.
	DisableCache bool
	// PendingExtra, when set, reports live events outside the engine the
	// monitor ticks on. Sharded runs point it at the shard engines' summed
	// backlog (cluster.TimeShared.ShardsPending): node events then live off
	// the global calendar, and without the hook the monitor would stop
	// sampling while jobs are still running — diverging from the sequential
	// reference, whose single calendar keeps the tick armed.
	PendingExtra func() int
	// Pool, when non-nil with more than one worker, fans each tick's
	// per-node baseline sampling across the pool (sharded runs hand the
	// monitor the same pool the barrier phases use; the tick fires at a
	// barrier, so the pool is idle). Every per-node figure is computed
	// with exactly the serial walk's arithmetic and the fold back into a
	// sample runs serially in node-index order, so the emitted series is
	// byte-identical to the serial path.
	Pool *sim.ShardPool

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
	// stats and wdds are the pool path's scratch: one nodeStat per node,
	// one deadline-delay buffer per worker.
	stats []nodeStat
	wdds  [][]float64
}

// nodeStat is one node's contribution to a sample, computed in the
// parallel phase and folded serially.
type nodeStat struct {
	down     bool
	util     float64
	busy     bool
	delayed  int
	mu       float64
	sigma    float64
	hasJobs  bool
	zeroRisk bool
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
	if !m.DisableCache && ent.valid && ent.version == node.Version() &&
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
	if e.Pending() > 0 || (m.PendingExtra != nil && m.PendingExtra() > 0) {
		e.After(m.Interval, sim.PriorityMonitor, m.tick)
	}
}

func (m *Monitor) sample(now float64) MonitorSample {
	if m.Pool != nil && m.Pool.Workers() > 1 {
		return m.samplePooled(now)
	}
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

// samplePooled is the fan-out counterpart of the serial walk in sample:
// workers compute disjoint contiguous node ranges into per-node stats
// (the baseline cache entries are per-node, the prediction scratch is
// per-node, and each worker carries its own deadline-delay buffer, so
// the phase is race-free), then one serial fold accumulates them in node
// index order with the identical floating-point operation sequence.
func (m *Monitor) samplePooled(now float64) MonitorSample {
	n := m.Cluster.Len()
	k := m.Pool.Workers()
	if m.cache == nil {
		m.cache = make([]baselineCache, n)
	}
	if cap(m.stats) < n {
		m.stats = make([]nodeStat, n)
	}
	stats := m.stats[:n]
	if len(m.wdds) < k {
		m.wdds = make([][]float64, k)
	}
	m.Pool.Run(func(w int) {
		lo, hi := w*n/k, (w+1)*n/k
		dds := m.wdds[w]
		for i := lo; i < hi; i++ {
			node := m.Cluster.Node(i)
			st := &stats[i]
			*st = nodeStat{}
			if node.Down() {
				st.down = true
				continue
			}
			st.util = node.Utilization()
			st.busy = node.NumSlices() > 0
			preds := m.baseline(i, node, now)
			if cap(dds) < len(preds) {
				dds = make([]float64, len(preds))
			}
			dd := dds[:len(preds)]
			for j, pr := range preds {
				dd[j] = cluster.DeadlineDelay(pr.Delay, pr.AbsDeadline-now)
				if pr.Delay > 0 {
					st.delayed++
				}
			}
			st.mu, st.sigma = RiskOfDelay(dd)
			st.hasJobs = len(dd) > 0
			st.zeroRisk = ZeroRisk(st.sigma)
		}
		m.wdds[w] = dds
	})
	s := MonitorSample{Time: now, RunningJobs: m.Cluster.Running()}
	var utilSum, sigmaSum, muSum float64
	muNodes := 0
	upNodes := 0
	for i := range stats {
		st := &stats[i]
		if st.down {
			s.DownNodes++
			continue
		}
		upNodes++
		utilSum += st.util
		if st.busy {
			s.BusyNodes++
		}
		s.DelayedJobs += st.delayed
		sigmaSum += st.sigma
		if st.hasJobs {
			muSum += st.mu
			muNodes++
		} else {
			muSum++
			muNodes++
		}
		if st.zeroRisk {
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

// WriteCSV emits the time series as CSV.
func (m *Monitor) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time,utilization,running,busy_nodes,mean_sigma,mean_mu,delayed_jobs,zero_risk_nodes,down_nodes"); err != nil {
		return err
	}
	for _, s := range m.samples {
		if _, err := fmt.Fprintf(w, "%g,%.4f,%d,%d,%.4f,%.4f,%d,%d,%d\n",
			s.Time, s.Utilization, s.RunningJobs, s.BusyNodes, s.MeanSigma, s.MeanMu, s.DelayedJobs, s.ZeroRiskNodes, s.DownNodes); err != nil {
			return err
		}
	}
	return nil
}
