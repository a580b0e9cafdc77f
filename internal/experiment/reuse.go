package experiment

import (
	"context"

	"clustersched/internal/cluster"
	"clustersched/internal/core"
	"clustersched/internal/metrics"
	"clustersched/internal/obs"
	"clustersched/internal/predict"
	"clustersched/internal/sim"
	"clustersched/internal/workload"
)

// resettable is the contract a policy must meet to be cached in a run
// scratch: Reset must restore the policy to its just-constructed state
// (minus retained scratch storage) so it can drive a fresh run on a reset
// cluster. EDF, Libra and LibraRisk implement it; the sched extension
// policies do not and are rebuilt from scratch every run.
type resettable interface{ Reset() }

// policyContext is one cached policy with its execution substrate; exactly
// one of ts/ss is non-nil, mirroring buildPolicyClusters.
type policyContext struct {
	pol core.Policy
	ts  *cluster.TimeShared
	ss  *cluster.SpaceShared
}

// runScratch is the reusable state of one sweep worker. After a warm-up
// run per policy kind, running another cell through the scratch performs
// no steady-state heap allocations: the engine recycles events through its
// freelist, the recorder keeps its dense pending table and results
// storage, the cluster re-fills its arenas, and the job slice is
// transformed in place.
//
// A scratch is confined to one worker goroutine; nothing here is
// synchronized.
type runScratch struct {
	engine *sim.Engine
	rec    *metrics.Recorder
	// ctxs caches policies (and their clusters) per kind, so a sweep
	// visiting the same policy many times rebuilds nothing. Only
	// resettable policies are cached.
	ctxs   map[PolicyKind]*policyContext
	jobs   []workload.Job
	driver core.ArrivalDriver
	// dirty marks the scratch as possibly corrupt: it is set before every
	// run that uses the scratch and cleared only when the run returns
	// (even with an error — every component's Reset recovers from mid-run
	// state). A panic skips the clear, so every later cell on this worker
	// falls back to the fresh-build path rather than trust half-mutated
	// internals.
	dirty bool
}

func newRunScratch() *runScratch {
	return &runScratch{
		engine: sim.NewEngine(),
		rec:    metrics.NewRecorder(),
		ctxs:   make(map[PolicyKind]*policyContext),
	}
}

// acquire returns the scratch for one run, or nil (meaning "build
// fresh") if the scratch is nil or was dirtied by an earlier panic. It is
// nil-safe so callers can thread a missing scratch without branching.
func (sc *runScratch) acquire() *runScratch {
	if sc == nil || sc.dirty {
		return nil
	}
	sc.dirty = true
	return sc
}

// release marks a successfully *returned-from* run (a panic never
// reaches it); nil-safe, matching acquire.
func (sc *runScratch) release() {
	if sc != nil {
		sc.dirty = false
	}
}

// runInstrumented is the body shared by Run (sc == nil:
// build everything fresh) and the sweep workers (sc != nil: reuse the
// worker's scratch). The two paths produce identical summaries by
// construction — every Reset restores exact constructor state and every
// in-place transform draws the same random sequence as its allocating
// counterpart — and the differential tests in reuse_test.go hold them to
// byte-identical figures at paper scale.
// cell is the sweep cell index used to tag observability output (-1 for
// standalone runs); observability setup runs only when base.Obs is set,
// so runs with it off execute the pre-observability instruction stream.
// The float64 is the run's mean σ over its monitor samples (see
// Result.MeanSigma).
func runInstrumented(ctx context.Context, base BaseConfig, baseJobs []workload.Job, spec RunSpec, sc *runScratch, cell int) (metrics.Summary, float64, error) {
	var (
		jobs []workload.Job
		e    *sim.Engine
		rec  *metrics.Recorder
		drv  *core.ArrivalDriver
	)
	if sc != nil {
		if cap(sc.jobs) < len(baseJobs) {
			sc.jobs = make([]workload.Job, len(baseJobs))
		}
		jobs = sc.jobs[:len(baseJobs)]
		if err := workload.AssignDeadlinesInto(jobs, baseJobs, spec.Deadline); err != nil {
			return metrics.Summary{}, 0, err
		}
		workload.ScaleArrivalsInPlace(jobs, spec.ArrivalDelayFactor)
		// Engine first: Reset invalidates every outstanding *Event, which
		// is what lets the cluster Resets below drop their event
		// references without cancelling them one by one.
		e = sc.engine
		e.Reset()
		rec = sc.rec
		rec.Reset()
		drv = &sc.driver
	} else {
		j, err := workload.AssignDeadlines(baseJobs, spec.Deadline)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		jobs = workload.ScaleArrivals(j, spec.ArrivalDelayFactor)
		e = sim.NewEngine()
		rec = metrics.NewRecorder()
		drv = new(core.ArrivalDriver)
	}

	var (
		pol core.Policy
		ts  *cluster.TimeShared
		ss  *cluster.SpaceShared
	)
	if pc := cachedPolicy(sc, spec.Policy); pc != nil {
		pol, ts, ss = pc.pol, pc.ts, pc.ss
		if ts != nil {
			ts.Reset()
		}
		if ss != nil {
			ss.Reset()
		}
		pol.(resettable).Reset()
	} else {
		var err error
		pol, ts, ss, err = buildPolicyClusters(base, spec.Policy, rec)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		if _, ok := pol.(resettable); ok && sc != nil {
			sc.ctxs[spec.Policy] = &policyContext{pol: pol, ts: ts, ss: ss}
		}
	}

	var orun *obs.Run
	if base.Obs != nil {
		orun = base.Obs.NewRun(runTag(cell, spec), spec.Policy.String())
		attachObs(orun, pol, ts, ss)
		// Detach unconditionally so a cached policy context never carries
		// hooks for a bundle that was merged (or discarded on error).
		defer detachObs(pol, ts, ss)
	}

	if spec.Estimator != "" {
		// Wrapped per run and after the reset and the obs attach, so a
		// cached policy stays the inner one; Recorder.Reset drops the
		// wrapper's observer, so wrappers never chain across runs.
		pred, err := predict.New(spec.Estimator)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		pol = predict.Wrap(pol, rec, pred)
	}

	var chk *sim.InvariantChecker
	if base.CheckInvariants {
		chk = core.InstallInvariantChecker(e, rec, ts, ss)
	}
	if spec.Faults.Enabled() {
		if err := installFaults(e, spec.Faults, spec.Policy, ts, ss, jobs, runTracer(orun)); err != nil {
			return metrics.Summary{}, 0, err
		}
	}
	var mon *core.Monitor
	if spec.MonitorInterval > 0 && ts != nil {
		var err error
		mon, err = core.NewMonitor(ts, spec.MonitorInterval)
		if err != nil {
			return metrics.Summary{}, 0, err
		}
		mon.Start(e)
	}
	if err := core.RunSimulationReusing(ctx, e, pol, rec, jobs, spec.InaccuracyPct, drv); err != nil {
		return metrics.Summary{}, 0, err
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			return metrics.Summary{}, 0, err
		}
	}
	if orun != nil {
		// Only successful runs merge; a failed run's partial bundle is
		// simply dropped, so the sweep output never mixes in aborted runs.
		finishRunObs(orun, e, ts)
		if err := base.Obs.Finish(orun); err != nil {
			return metrics.Summary{}, 0, err
		}
	}
	var meanSigma float64
	if mon != nil {
		samples := mon.Samples()
		for _, smp := range samples {
			meanSigma += smp.MeanSigma
		}
		if len(samples) > 0 {
			meanSigma /= float64(len(samples))
		}
	}
	return rec.Summarize(), meanSigma, nil
}

// cachedPolicy looks up the scratch's policy cache; nil-safe.
func cachedPolicy(sc *runScratch, kind PolicyKind) *policyContext {
	if sc == nil {
		return nil
	}
	return sc.ctxs[kind]
}

// newScratchPool returns the per-worker scratch slots for a sweep, or nil
// when reuse is disabled. Slots are filled lazily by scratchFor so a
// worker that only ever hits the checkpoint journal builds nothing.
func newScratchPool(base BaseConfig, workers int) []*runScratch {
	if base.disableReuse {
		return nil
	}
	return make([]*runScratch, workers)
}

// scratchFor returns worker w's scratch, creating it on first use. Each
// slot is touched only by its own worker goroutine.
func scratchFor(pool []*runScratch, w int) *runScratch {
	if pool == nil {
		return nil
	}
	if pool[w] == nil {
		pool[w] = newRunScratch()
	}
	return pool[w]
}
