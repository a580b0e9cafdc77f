// Package fault injects deterministic, seeded failure processes into a
// running cluster simulation: per-node crash/recovery cycles, transient
// straggler slowdowns, and optional correlated multi-node outages.
//
// Every stochastic decision is drawn from dedicated sim.RNG streams — one
// per fault process per node — so a failure trace is a pure function of
// (seed, config) regardless of how the rest of the simulation interleaves
// with it, and a zero-valued Config draws no random numbers at all: the
// fault layer is provably a no-op when disabled (see TestZeroFaultNoOp).
package fault

import (
	"fmt"
	"math"

	"clustersched/internal/cluster"
	"clustersched/internal/obs"
	"clustersched/internal/sim"
)

// Config parameterises the fault processes. The zero value disables
// everything.
type Config struct {
	// Seed derives the injector's RNG streams (independent of the
	// workload and estimate-error streams).
	Seed uint64

	// MTBF is each node's mean time between failures in seconds
	// (exponential). 0 disables crash/recovery cycles.
	MTBF float64
	// MTTR is each node's mean time to repair in seconds (exponential).
	// Must be > 0 when MTBF > 0.
	MTTR float64

	// StragglerMTBF is the mean time between transient slowdown episodes
	// per node (exponential). 0 disables stragglers.
	StragglerMTBF float64
	// StragglerDuration is the mean slowdown episode length in seconds
	// (exponential).
	StragglerDuration float64
	// StragglerFactor is the effective-rate multiplier applied during an
	// episode, in (0, 1]. Default 0.5 when episodes are enabled.
	StragglerFactor float64

	// CorrelatedMTBF is the mean time between correlated outage events
	// (exponential) that take down a random contiguous group of nodes at
	// once — a rack or switch failure. 0 disables correlated outages.
	CorrelatedMTBF float64
	// CorrelatedSize is the number of nodes taken down per correlated
	// outage (clamped to cluster size). Default 2.
	CorrelatedSize int
	// CorrelatedMTTR is the mean outage duration (exponential). Defaults
	// to MTTR, which must then be set.
	CorrelatedMTTR float64

	// Horizon stops the injector from scheduling events past this
	// simulated time. Required when any process is enabled: fault
	// processes are self-perpetuating and would otherwise keep the event
	// calendar non-empty forever.
	Horizon float64
}

// Enabled reports whether any fault process is switched on.
func (c Config) Enabled() bool {
	return c.MTBF > 0 || c.StragglerMTBF > 0 || c.CorrelatedMTBF > 0
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	// NaN passes every comparison below (a NaN MTTR would schedule a
	// repair at NaN time), so each float field must first be finite.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MTBF", c.MTBF}, {"MTTR", c.MTTR}, {"straggler MTBF", c.StragglerMTBF},
		{"straggler duration", c.StragglerDuration}, {"straggler factor", c.StragglerFactor},
		{"correlated MTBF", c.CorrelatedMTBF}, {"correlated MTTR", c.CorrelatedMTTR},
		{"horizon", c.Horizon},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fault: %s %g, want a finite number", f.name, f.v)
		}
	}
	if !c.Enabled() {
		return nil
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		return fmt.Errorf("fault: MTBF %g requires MTTR > 0", c.MTBF)
	}
	if c.StragglerMTBF > 0 {
		if c.StragglerDuration <= 0 {
			return fmt.Errorf("fault: straggler MTBF %g requires duration > 0", c.StragglerMTBF)
		}
		if f := c.StragglerFactor; f != 0 && (f <= 0 || f > 1) {
			return fmt.Errorf("fault: straggler factor %g, want in (0,1]", f)
		}
	}
	if c.CorrelatedMTBF > 0 {
		if c.CorrelatedMTTR <= 0 && c.MTTR <= 0 {
			return fmt.Errorf("fault: correlated MTBF %g requires a repair time (CorrelatedMTTR or MTTR)", c.CorrelatedMTBF)
		}
		if c.CorrelatedSize < 0 {
			return fmt.Errorf("fault: correlated size %d, want >= 0", c.CorrelatedSize)
		}
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("fault: enabled processes require a finite positive horizon, got %g", c.Horizon)
	}
	return nil
}

// Cluster is the node-state interface the injector drives; both cluster
// engines satisfy it through ClusterOf.
type Cluster struct {
	// Nodes is the node count.
	Nodes int
	// Down crashes (true) or recovers (false) a node and reports how many
	// jobs the transition killed.
	Down func(e *sim.Engine, id int, down bool) int
	// Speed sets a node's effective-rate multiplier.
	Speed func(e *sim.Engine, id int, factor float64)
}

// ClusterOf adapts whichever substrate a run executes on — exactly one of
// ts and ss is non-nil — to the node-state surface.
func ClusterOf(ts *cluster.TimeShared, ss *cluster.SpaceShared) Cluster {
	if ts != nil {
		return Cluster{
			Nodes: ts.Len(),
			Down:  ts.SetNodeDown,
			Speed: ts.SetNodeSpeed,
		}
	}
	return Cluster{
		Nodes: ss.Len(),
		Down:  ss.SetNodeDown,
		Speed: ss.SetNodeSpeed,
	}
}

// Injector owns the fault processes for one simulation run.
type Injector struct {
	cfg     Config
	cluster Cluster

	// Trace, if set, receives a KindFault event per injected failure
	// (Detail names the process); the node transitions it causes are
	// traced separately by the cluster. Nil costs one comparison.
	Trace obs.Tracer

	// downDepth counts overlapping down-causes per node (its own renewal
	// process plus correlated outages). The cluster transition fires only
	// on 0→1 and 1→0 edges, so overlapping failures compose correctly.
	downDepth []int
	// slowDepth is the analogous counter for straggler episodes.
	slowDepth []int

	// crashes, stragglerEpisodes and correlatedOutages count injected
	// events, for reporting and tests.
	crashes           int
	stragglerEpisodes int
	correlatedOutages int
}

// Stream identifiers: each (process, node) pair gets an independent RNG so
// traces are stable under config changes to unrelated processes.
const (
	streamCrash      = 1 << 32
	streamStraggler  = 2 << 32
	streamCorrelated = 3 << 32
)

// New validates cfg and builds an injector for the given cluster surface.
// Returns (nil, nil) for a disabled config: callers can skip wiring
// entirely.
func New(cfg Config, cluster Cluster) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if cluster.Nodes <= 0 || cluster.Down == nil || cluster.Speed == nil {
		return nil, fmt.Errorf("fault: cluster surface incomplete")
	}
	return &Injector{
		cfg:       cfg,
		cluster:   cluster,
		downDepth: make([]int, cluster.Nodes),
		slowDepth: make([]int, cluster.Nodes),
	}, nil
}

// Crashes returns the number of node-crash events injected so far
// (individual renewal-process crashes plus per-node correlated hits).
func (in *Injector) Crashes() int { return in.crashes }

// StragglerEpisodes returns the number of slowdown episodes begun.
func (in *Injector) StragglerEpisodes() int { return in.stragglerEpisodes }

// CorrelatedOutages returns the number of correlated outage events begun.
func (in *Injector) CorrelatedOutages() int { return in.correlatedOutages }

// Install schedules the first event of every enabled process. Call once,
// before Engine.Run.
func (in *Injector) Install(e *sim.Engine) {
	root := sim.NewRNG(in.cfg.Seed)
	if in.cfg.MTBF > 0 {
		for id := 0; id < in.cluster.Nodes; id++ {
			rng := root.Stream(streamCrash | uint64(id))
			in.scheduleCrash(e, id, rng)
		}
	}
	if in.cfg.StragglerMTBF > 0 {
		for id := 0; id < in.cluster.Nodes; id++ {
			rng := root.Stream(streamStraggler | uint64(id))
			in.scheduleStraggler(e, id, rng)
		}
	}
	if in.cfg.CorrelatedMTBF > 0 {
		rng := root.Stream(streamCorrelated)
		in.scheduleCorrelated(e, rng)
	}
}

// at schedules fn at now+d with fault priority unless that would pass the
// horizon.
func (in *Injector) at(e *sim.Engine, d float64, fn sim.Handler) bool {
	t := e.Now() + d
	if t > in.cfg.Horizon {
		return false
	}
	e.At(t, sim.PriorityFault, fn)
	return true
}

// scheduleCrash arms node id's next failure. Each node alternates
// up Exp(MTBF) → down Exp(MTTR) as an alternating renewal process.
func (in *Injector) scheduleCrash(e *sim.Engine, id int, rng *sim.RNG) {
	up := rng.Exp(in.cfg.MTBF)
	in.at(e, up, func(e *sim.Engine) {
		in.crashes++
		if in.Trace != nil {
			in.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindFault, Job: -1, Node: id, Detail: "crash"})
		}
		in.nodeDown(e, id)
		// Repairs are capped at the horizon rather than dropped: a node
		// left permanently dead past the horizon would starve the drain
		// of queued work.
		d := rng.Exp(in.cfg.MTTR)
		if e.Now()+d > in.cfg.Horizon {
			d = math.Max(0, in.cfg.Horizon-e.Now())
		}
		e.At(e.Now()+d, sim.PriorityFault, func(e *sim.Engine) {
			in.nodeUp(e, id)
			in.scheduleCrash(e, id, rng)
		})
	})
}

// scheduleStraggler arms node id's next slowdown episode.
func (in *Injector) scheduleStraggler(e *sim.Engine, id int, rng *sim.RNG) {
	gap := rng.Exp(in.cfg.StragglerMTBF)
	in.at(e, gap, func(e *sim.Engine) {
		in.stragglerEpisodes++
		if in.Trace != nil {
			factor := in.cfg.StragglerFactor
			if factor == 0 {
				factor = 0.5
			}
			in.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindFault, Job: -1, Node: id, Value: factor, Detail: "straggler"})
		}
		in.nodeSlow(e, id, true)
		dur := rng.Exp(in.cfg.StragglerDuration)
		d := dur
		if e.Now()+d > in.cfg.Horizon {
			d = math.Max(0, in.cfg.Horizon-e.Now())
		}
		e.At(e.Now()+d, sim.PriorityFault, func(e *sim.Engine) {
			in.nodeSlow(e, id, false)
			in.scheduleStraggler(e, id, rng)
		})
	})
}

// scheduleCorrelated arms the next correlated outage: a contiguous block
// of nodes starting at a random offset goes down together.
func (in *Injector) scheduleCorrelated(e *sim.Engine, rng *sim.RNG) {
	gap := rng.Exp(in.cfg.CorrelatedMTBF)
	in.at(e, gap, func(e *sim.Engine) {
		in.correlatedOutages++
		size := in.cfg.CorrelatedSize
		if size <= 0 {
			size = 2
		}
		if size > in.cluster.Nodes {
			size = in.cluster.Nodes
		}
		start := rng.Intn(in.cluster.Nodes)
		if in.Trace != nil {
			in.Trace.Emit(obs.Event{Time: e.Now(), Kind: obs.KindFault, Job: -1, Node: start, Value: float64(size), Detail: "correlated-outage"})
		}
		ids := make([]int, size)
		for i := range ids {
			ids[i] = (start + i) % in.cluster.Nodes
		}
		for _, id := range ids {
			in.crashes++
			in.nodeDown(e, id)
		}
		mttr := in.cfg.CorrelatedMTTR
		if mttr <= 0 {
			mttr = in.cfg.MTTR
		}
		d := rng.Exp(mttr)
		if e.Now()+d > in.cfg.Horizon {
			d = math.Max(0, in.cfg.Horizon-e.Now())
		}
		e.At(e.Now()+d, sim.PriorityFault, func(e *sim.Engine) {
			for _, id := range ids {
				in.nodeUp(e, id)
			}
			in.scheduleCorrelated(e, rng)
		})
	})
}

// nodeDown registers one more down-cause for a node; the cluster sees the
// crash only on the first.
func (in *Injector) nodeDown(e *sim.Engine, id int) {
	in.downDepth[id]++
	if in.downDepth[id] == 1 {
		in.cluster.Down(e, id, true)
	}
}

// nodeUp releases one down-cause; the cluster sees the recovery only when
// the last cause clears.
func (in *Injector) nodeUp(e *sim.Engine, id int) {
	if in.downDepth[id] == 0 {
		return
	}
	in.downDepth[id]--
	if in.downDepth[id] == 0 {
		in.cluster.Down(e, id, false)
	}
}

// nodeSlow begins or ends a straggler episode; overlapping episodes
// compose by depth, not by compounding the factor.
func (in *Injector) nodeSlow(e *sim.Engine, id int, slow bool) {
	factor := in.cfg.StragglerFactor
	if factor == 0 {
		factor = 0.5
	}
	if slow {
		in.slowDepth[id]++
		if in.slowDepth[id] == 1 {
			in.cluster.Speed(e, id, factor)
		}
		return
	}
	if in.slowDepth[id] == 0 {
		return
	}
	in.slowDepth[id]--
	if in.slowDepth[id] == 0 {
		in.cluster.Speed(e, id, 1)
	}
}
