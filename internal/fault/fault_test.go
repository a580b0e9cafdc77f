package fault

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"clustersched/internal/sim"
)

// traceCluster records every transition the injector drives, as a
// printable trace for determinism comparisons.
type traceCluster struct {
	nodes int
	trace []string
	down  map[int]bool
	slow  map[int]bool
}

func newTraceCluster(n int) *traceCluster {
	return &traceCluster{nodes: n, down: map[int]bool{}, slow: map[int]bool{}}
}

func (tc *traceCluster) surface() Cluster {
	return Cluster{
		Nodes: tc.nodes,
		Down: func(e *sim.Engine, id int, down bool) int {
			tc.trace = append(tc.trace, fmt.Sprintf("t=%.6f node=%d down=%v", e.Now(), id, down))
			tc.down[id] = down
			return 0
		},
		Speed: func(e *sim.Engine, id int, factor float64) {
			tc.trace = append(tc.trace, fmt.Sprintf("t=%.6f node=%d speed=%g", e.Now(), id, factor))
			tc.slow[id] = factor != 1
		},
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"crashes ok", Config{MTBF: 100, MTTR: 10, Horizon: 1000}, true},
		{"crashes without MTTR", Config{MTBF: 100, Horizon: 1000}, false},
		{"crashes without horizon", Config{MTBF: 100, MTTR: 10}, false},
		{"straggler ok", Config{StragglerMTBF: 100, StragglerDuration: 10, Horizon: 1000}, true},
		{"straggler without duration", Config{StragglerMTBF: 100, Horizon: 1000}, false},
		{"straggler factor out of range", Config{StragglerMTBF: 100, StragglerDuration: 10, StragglerFactor: 1.5, Horizon: 1000}, false},
		{"correlated ok", Config{CorrelatedMTBF: 100, CorrelatedMTTR: 10, Horizon: 1000}, true},
		{"correlated falls back to MTTR", Config{CorrelatedMTBF: 100, MTTR: 10, Horizon: 1000}, true},
		{"correlated without repair", Config{CorrelatedMTBF: 100, Horizon: 1000}, false},
		{"NaN MTTR", Config{MTBF: 100, MTTR: math.NaN(), Horizon: 1000}, false},
		{"NaN straggler factor", Config{StragglerMTBF: 100, StragglerDuration: 10, StragglerFactor: math.NaN(), Horizon: 1000}, false},
		{"infinite correlated MTTR", Config{CorrelatedMTBF: 100, CorrelatedMTTR: math.Inf(1), Horizon: 1000}, false},
		{"NaN MTBF", Config{MTBF: math.NaN(), MTTR: 10, Horizon: 1000}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestDisabledConfigMakesNoInjector(t *testing.T) {
	inj, err := New(Config{}, newTraceCluster(4).surface())
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		t.Fatal("disabled config produced an injector")
	}
}

func runTrace(t *testing.T, cfg Config, nodes int) (*traceCluster, *Injector) {
	t.Helper()
	tc := newTraceCluster(nodes)
	inj, err := New(cfg, tc.surface())
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	inj.Install(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return tc, inj
}

func TestDeterministicTraces(t *testing.T) {
	cfg := Config{
		Seed: 42, MTBF: 500, MTTR: 50,
		StragglerMTBF: 700, StragglerDuration: 100, StragglerFactor: 0.5,
		CorrelatedMTBF: 2000, CorrelatedSize: 2, CorrelatedMTTR: 80,
		Horizon: 10_000,
	}
	a, injA := runTrace(t, cfg, 8)
	b, _ := runTrace(t, cfg, 8)
	if len(a.trace) == 0 {
		t.Fatal("no fault events fired over 20 MTBFs")
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("same seed, different traces:\n%v\nvs\n%v", a.trace, b.trace)
	}
	if injA.Crashes() == 0 || injA.StragglerEpisodes() == 0 || injA.CorrelatedOutages() == 0 {
		t.Fatalf("expected all processes to fire: crashes=%d stragglers=%d outages=%d",
			injA.Crashes(), injA.StragglerEpisodes(), injA.CorrelatedOutages())
	}

	cfg.Seed = 43
	c, _ := runTrace(t, cfg, 8)
	if reflect.DeepEqual(a.trace, c.trace) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestEveryNodeRecoversAndCalendarDrains(t *testing.T) {
	cfg := Config{Seed: 7, MTBF: 300, MTTR: 100, Horizon: 5000}
	tc, _ := runTrace(t, cfg, 6)
	for id, down := range tc.down {
		if down {
			t.Errorf("node %d still down after the calendar drained", id)
		}
	}
	for id, slow := range tc.slow {
		if slow {
			t.Errorf("node %d still degraded after the calendar drained", id)
		}
	}
}

func TestOverlappingDownCausesCompose(t *testing.T) {
	// Drive nodeDown/nodeUp directly: a node crashed by both its own
	// renewal process and a correlated outage must see exactly one
	// down=true and one down=false transition.
	tc := newTraceCluster(2)
	inj, err := New(Config{MTBF: 1, MTTR: 1, Horizon: 1}, tc.surface())
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	inj.nodeDown(e, 0)
	inj.nodeDown(e, 0) // second cause: no new transition
	inj.nodeUp(e, 0)   // one cause clears: still down
	inj.nodeUp(e, 0)   // last cause clears: up
	inj.nodeUp(e, 0)   // spurious: ignored
	want := []string{
		"t=0.000000 node=0 down=true",
		"t=0.000000 node=0 down=false",
	}
	if !reflect.DeepEqual(tc.trace, want) {
		t.Fatalf("transition trace = %v, want %v", tc.trace, want)
	}
}

func TestHorizonBoundsInjection(t *testing.T) {
	cfg := Config{Seed: 3, MTBF: 100, MTTR: 100_000, Horizon: 1000}
	tc, _ := runTrace(t, cfg, 4)
	// With MTTR far beyond the horizon every repair is capped at the
	// horizon, so the calendar drains (runTrace would hang otherwise) and
	// all nodes end up.
	for id, down := range tc.down {
		if down {
			t.Errorf("node %d left down past the horizon", id)
		}
	}
}
