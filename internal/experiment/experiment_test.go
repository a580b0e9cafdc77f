package experiment

import (
	"context"
	"strings"
	"testing"

	"clustersched/internal/workload"
)

// testBase returns a scaled-down configuration (16 nodes, 400 jobs) with
// the same heavy offered load as the full setup, for fast tests.
func testBase() BaseConfig {
	base := DefaultBase()
	base.Nodes = 16
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = 400
	gen.MaxProcs = 16
	gen.MeanInterarrival = 3000
	gen.MeanRuntime = 5000
	gen.MaxRuntime = 20000
	base.Generator = gen
	return base
}

// allFiguresFrom builds figures 1-4 in order over one base workload.
func allFiguresFrom(base BaseConfig, baseJobs []workload.Job) ([]Figure, error) {
	var figs []Figure
	for _, build := range []func(context.Context, BaseConfig, []workload.Job) (Figure, error){
		Figure1FromContext, Figure2FromContext, Figure3FromContext, Figure4FromContext,
	} {
		f, err := build(context.Background(), base, baseJobs)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

func TestRunSingleSpecPerPolicy(t *testing.T) {
	base := testBase()
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range AllPolicies {
		s, err := Run(base, jobs, RunSpec{Policy: pol, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if s.Submitted != 400 {
			t.Fatalf("%v: submitted = %d", pol, s.Submitted)
		}
		if s.Unfinished != 0 {
			t.Fatalf("%v: unfinished = %d", pol, s.Unfinished)
		}
		if s.Met == 0 {
			t.Fatalf("%v: no jobs met", pol)
		}
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	base := testBase()
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Policy: LibraRisk, ArrivalDelayFactor: 0.7, InaccuracyPct: 100, Deadline: base.Deadline}
	a, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(base, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("summaries differ:\n%+v\n%+v", a, b)
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	base := testBase()
	base.Workers = 4
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	specs := []RunSpec{
		{Policy: EDF, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline},
		{Policy: Libra, ArrivalDelayFactor: 1, InaccuracyPct: 100, Deadline: base.Deadline},
		{Policy: LibraRisk, ArrivalDelayFactor: 0.5, InaccuracyPct: 100, Deadline: base.Deadline},
	}
	results := Sweep(base, jobs, specs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := Run(base, jobs, spec)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Summary != want {
			t.Fatalf("spec %d: parallel %+v != sequential %+v", i, results[i].Summary, want)
		}
		if results[i].Spec != spec {
			t.Fatalf("spec %d reordered", i)
		}
	}
}

func TestSweepSingleWorker(t *testing.T) {
	base := testBase()
	base.Workers = 1
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	results := Sweep(base, jobs, []RunSpec{
		{Policy: EDF, ArrivalDelayFactor: 1, InaccuracyPct: 0, Deadline: base.Deadline},
	})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
}

func TestFigureBuildersShape(t *testing.T) {
	base := testBase()
	base.Generator.Jobs = 150
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name  string
		build func(context.Context, BaseConfig, []workload.Job) (Figure, error)
		wantX int
	}
	for _, c := range []tc{
		{"figure1", Figure1FromContext, len(Fig1Factors)},
		{"figure2", Figure2FromContext, len(Fig2Ratios)},
		{"figure3", Figure3FromContext, len(Fig3HighUrgencyPct)},
		{"figure4", Figure4FromContext, len(Fig4InaccuracyPct)},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f, err := c.build(context.Background(), base, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if f.ID != c.name {
				t.Fatalf("ID = %q", f.ID)
			}
			if len(f.Panels) != 4 {
				t.Fatalf("panels = %d, want 4", len(f.Panels))
			}
			for _, p := range f.Panels {
				if len(p.X) != c.wantX {
					t.Fatalf("panel %q X = %d, want %d", p.Name, len(p.X), c.wantX)
				}
				if len(p.Series) != len(AllPolicies) {
					t.Fatalf("panel %q series = %d", p.Name, len(p.Series))
				}
				for _, s := range p.Series {
					if len(s.Y) != len(p.X) {
						t.Fatalf("panel %q series %q Y = %d", p.Name, s.Name, len(s.Y))
					}
					for _, y := range s.Y {
						if y < 0 {
							t.Fatalf("negative metric %v in %q/%q", y, p.Name, s.Name)
						}
					}
				}
			}
		})
	}
}

func TestBuildWorkloadTable(t *testing.T) {
	base := testBase()
	jobs, err := GenerateBase(base)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := BuildWorkloadTableFrom(base, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Jobs != base.Generator.Jobs {
		t.Fatalf("Jobs = %d", tbl.Jobs)
	}
	if tbl.PctOverestimates < 50 {
		t.Fatalf("overestimates = %.1f%%, want majority", tbl.PctOverestimates)
	}
	total := tbl.PctExactEstimates + tbl.PctUnderestimates + tbl.PctOverestimates
	if total < 99.9 || total > 100.1 {
		t.Fatalf("estimate fractions sum to %v", total)
	}
	if tbl.MeanOverestimateRatio <= 1 {
		t.Fatalf("MeanOverestimateRatio = %v", tbl.MeanOverestimateRatio)
	}
}

func TestRenderPanelTableAndPlot(t *testing.T) {
	p := Panel{
		Name: "(a) demo", XLabel: "x", YLabel: "y",
		X: []float64{1, 2, 3},
		Series: []Series{
			{Name: "EDF", Y: []float64{10, 20, 30}},
			{Name: "LibraRisk", Y: []float64{30, 20, 10}},
		},
	}
	var sb strings.Builder
	if err := WritePanelTable(&sb, p); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"(a) demo", "EDF", "LibraRisk", "10.00", "30.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := WritePanelPlot(&sb, p, 40, 10); err != nil {
		t.Fatal(err)
	}
	plot := sb.String()
	if !strings.Contains(plot, "E") || !strings.Contains(plot, "R") {
		t.Fatalf("plot missing series marks:\n%s", plot)
	}
	if !strings.Contains(plot, "E=EDF") {
		t.Fatalf("plot missing legend:\n%s", plot)
	}
}

func TestRenderPlotDegenerateInputs(t *testing.T) {
	var sb strings.Builder
	// Empty X, flat series, tiny canvas: must not panic or error.
	if err := WritePanelPlot(&sb, Panel{}, 60, 16); err != nil {
		t.Fatal(err)
	}
	flat := Panel{X: []float64{1, 1}, Series: []Series{{Name: "EDF", Y: []float64{5, 5}}}}
	if err := WritePanelPlot(&sb, flat, 60, 16); err != nil {
		t.Fatal(err)
	}
	if err := WritePanelPlot(&sb, flat, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFigureCSV(t *testing.T) {
	f := Figure{
		ID: "figure9", Title: "demo",
		Panels: []Panel{{
			Name: "(a)", X: []float64{1, 2},
			Series: []Series{{Name: "EDF", Y: []float64{3, 4}}},
		}},
	}
	var sb strings.Builder
	if err := WriteFigureCSV(&sb, f); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "figure,panel,policy,x,y\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "figure9,\"(a)\",EDF,1,3") {
		t.Fatalf("missing row:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", lines)
	}
}

func TestWriteWorkloadTableRenders(t *testing.T) {
	var sb strings.Builder
	if err := WriteWorkloadTable(&sb, WorkloadTable{Jobs: 3000, MeanInterarrivalSec: 2131}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2131 s") || !strings.Contains(sb.String(), "3000") {
		t.Fatalf("table output wrong:\n%s", sb.String())
	}
}

func TestPolicyKindString(t *testing.T) {
	if EDF.String() != "EDF" || Libra.String() != "Libra" || LibraRisk.String() != "LibraRisk" {
		t.Fatal("PolicyKind strings wrong")
	}
	if PolicyKind(9).String() == "" {
		t.Fatal("unknown kind should print")
	}
}
