package clustersched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// goldenOptions is the reduced scale every golden row runs at.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Nodes = 16
	o.Jobs = 300
	return o
}

// digest is the SHA-256 of v printed with %+v: every field, floats in
// their shortest round-trip form.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests pins one digest per facade entry point, so a change
// to how the facade runs a simulation cannot move a result unnoticed. A
// row that moves names its entry point; pin its new digest only with the
// reason it moved.
func TestGoldenDigests(t *testing.T) {
	// Go may fuse x*y+z into one FMA on arm64, ppc64le and s390x, which
	// moves the last bits of a float; the digests are amd64's.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	with := func(edit func(*Options)) Options {
		o := goldenOptions()
		edit(&o)
		return o
	}
	simulate := func(o Options) func() (any, error) {
		return func() (any, error) { return Simulate(o) }
	}
	figure := func(id string) func() (any, error) {
		return func() (any, error) {
			b, err := NewFigureBuilder(goldenOptions())
			if err != nil {
				return nil, err
			}
			return b.Build(id)
		}
	}
	rows := []struct {
		name string
		run  func() (any, error)
		want string
	}{
		{"Simulate/edf", simulate(with(func(o *Options) { o.Policy = PolicyEDF })), "b8c4eb59d78f6b0edcb9bdaceb566a910ff222f53c75cee81acb111adaaf5a1b"},
		{"Simulate/libra", simulate(with(func(o *Options) { o.Policy = PolicyLibra })), "d0c5fcef88b959ded60b87c92129e39bf9a1d4e997ec834f9d890fd70f621d40"},
		{"Simulate/librarisk", simulate(with(func(o *Options) { o.Policy = PolicyLibraRisk })), "18974f89ceb15e44e67b26076488fac8ad6e486755e5b2d5261832f207a4ade5"},
		{"Simulate/fcfs", simulate(with(func(o *Options) { o.Policy = PolicyFCFS })), "b7e53f90ad3612209ff50733f037db9cb826eea5c56e967b987bec6c1b9c3687"},
		{"Simulate/backfill-easy", simulate(with(func(o *Options) { o.Policy = PolicyBackfillEASY })), "cc9779e380c2554b52019780b693b0470be66ce32db1b38b046e3dd58781e2be"},
		{"Simulate/backfill-conservative", simulate(with(func(o *Options) { o.Policy = PolicyBackfillConservative })), "1eb9ec8d582262a825d761d96d75cd7c06398a7e8a987984ba656cc4ca520a9b"},
		{"Simulate/backfill-edf", simulate(with(func(o *Options) { o.Policy = PolicyBackfillEDF })), "53b73132f5c95ef6d15305a5a5b3aa81b0c0a51ff9d90fc85964938278f92d49"},
		{"Simulate/qops", simulate(with(func(o *Options) { o.Policy = PolicyQoPS })), "8fd35c29a020e4fa558a18f13a8aa333554277d63a2362bd83cfbd12f9468d3b"},
		{"Simulate/monitor+faults", simulate(with(func(o *Options) {
			o.MonitorInterval = 3600
			o.FaultSeed = 7
			o.FaultMTBF, o.FaultMTTR = 43200, 3600
			o.FaultStragglerMTBF, o.FaultStragglerDuration, o.FaultStragglerFactor = 43200, 600, 0.5
			o.FaultCorrelatedMTBF, o.FaultCorrelatedSize, o.FaultCorrelatedMTTR = 172800, 2, 3600
		})), "834700e774e9bb926401008e9771ef39b4281461e261592367b0558aab96d71f"},
		{"Simulate/scaling+users", simulate(with(func(o *Options) {
			o.Estimator = "scaling"
			o.UserModel = true
		})), "aee090d75f9ec37dd3b8b282c301c84bd6a8e669b4d77e7bafb47a9808ebf97f"},
		{"Simulate/user-estimate", simulate(with(func(o *Options) { o.Estimator = "user-estimate" })), "18974f89ceb15e44e67b26076488fac8ad6e486755e5b2d5261832f207a4ade5"},
		{"Simulate/check-invariants", simulate(with(func(o *Options) { o.CheckInvariants = true })), "18974f89ceb15e44e67b26076488fac8ad6e486755e5b2d5261832f207a4ade5"},
		{"SimulateJobs/LoadSWF", func() (any, error) {
			o := goldenOptions()
			jobs, err := GenerateWorkload(o)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := SaveSWF(&buf, jobs, o.Nodes); err != nil {
				return nil, err
			}
			loaded, err := LoadSWF(&buf, o, 0)
			if err != nil {
				return nil, err
			}
			return SimulateJobs(o, loaded)
		}, "633a94eacc60d50275e213e1ea20524ab48c38e01f02c6da2163df141e2e518a"},
		{"SimulateMany", func() (any, error) {
			var opts []Options
			for _, p := range []Policy{PolicyEDF, PolicyLibra, PolicyLibraRisk} {
				opts = append(opts, with(func(o *Options) { o.Policy = p; o.Seed = 3 }))
			}
			return SimulateMany(opts)
		}, "35166ec4dd239b21251ac8ecbc459b789cfdbf5242eabd74b65d90931f303666"},
		{"Report", func() (any, error) { return Report(with(func(o *Options) { o.UserModel = true })) }, "b5912e4c91df0bdd24a50ee21f58f1bbeb99403dc20660329f06c618d9445ce9"},
		{"ProviderEconomics", func() (any, error) { return ProviderEconomics(goldenOptions()) }, "66e1c7372bdb7a179617f4a76fcc787d22a660102aeb4c56598971f04905a98f"},
		{"Replicate", func() (any, error) { return Replicate(goldenOptions(), 3) }, "e995828c8954ca8c67543eb9c8270c6e70a91465e549e68cdafb495bb1ce8748"},
		{"FigureBuilder/figure1", figure("figure1"), "1fe29c7cf867288dfaecb72fc9d673da52a66560ce70033ed324bd2b2673e0a0"},
		{"FigureBuilder/figure2", figure("figure2"), "263ea77ac1a3cbeb014712c31fd533f51d4dd1ba138f6144466437149e361d9e"},
		{"FigureBuilder/figure3", figure("figure3"), "5d44d83726d68f844e490aed4af8278b345b914d121a3b3d77d5833a91864279"},
		{"FigureBuilder/figure4", figure("figure4"), "a5e4675b3e6429d0d970ae3a321731b1a20e43c8eb35f3d38b6a006c244a4530"},
		{"FigureBuilder/chaos", figure("chaos"), "a21260fd6682cc98bde1571e0cb66f1a6d8cc168337d5be63585226c826453b8"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			v, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(v); got != r.want {
				t.Errorf("digest %s, pinned %s", got, r.want)
			}
		})
	}
}
