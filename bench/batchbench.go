package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"clustersched"
)

// batchSetupCycles is how many cold set-ups the batch workload times.
// They take milliseconds, so it affords more than the serving workloads.
const batchSetupCycles = 15

// batchRecoverCycles is how many journal resumes it times.
const batchRecoverCycles = 15

func batchOptions(seed uint64) clustersched.Options {
	o := clustersched.DefaultOptions()
	o.Seed = seed
	o.Jobs = batchJobs
	return o
}

// buildFigures builds the named figures on a fresh builder, resuming from
// journal when one is given, and returns the wall time of every sweep cell
// (the gap between SetProgress events), the time spent building and the
// rendered bytes. onCell sees every progress event.
func buildFigures(o clustersched.Options, workers int, journal string, ids []string, onCell func(clustersched.BuildProgress)) (cellMS []float64, wallS float64, rendered []byte, err error) {
	fb, err := clustersched.NewFigureBuilder(o)
	if err != nil {
		return nil, 0, nil, err
	}
	fb.SetWorkers(workers)
	var last time.Time
	fb.SetProgress(func(p clustersched.BuildProgress) {
		now := time.Now()
		cellMS = append(cellMS, float64(now.Sub(last))/1e6)
		last = now
		onCell(p)
	})
	var buf bytes.Buffer
	var wall time.Duration
	last = time.Now()
	if journal != "" {
		if _, err := fb.OpenJournal(journal); err != nil {
			return nil, 0, nil, err
		}
		wall += time.Since(last)
	}
	for _, id := range ids {
		last = time.Now()
		t0 := last
		f, err := fb.Build(id)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s: %w", id, err)
		}
		wall += time.Since(t0)
		if err := clustersched.RenderFigure(&buf, f); err != nil {
			return nil, 0, nil, err
		}
	}
	return cellMS, wall.Seconds(), buf.Bytes(), nil
}

// runBatch measures paper-figure regeneration through the public facade.
func (b *bench) runBatch(s spec) error {
	o := batchOptions(b.seed)

	// Set-up: everything a user pays before the first simulation runs.
	var setupS []float64
	for i := 0; i < batchSetupCycles; i++ {
		t0 := time.Now()
		if _, err := clustersched.GenerateWorkload(o); err != nil {
			return err
		}
		fb, err := clustersched.NewFigureBuilder(o)
		if err != nil {
			return err
		}
		if err := fb.WriteWorkloadTable(io.Discard); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	rounds := batchRounds(b.seconds)
	var rate, p50, tail []float64
	var first []byte
	tailAt := tailPercentile(batchCellsPerRun)
	cpu0, err := cpuSeconds("self")
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		cellMS, wallS, rendered, err := buildFigures(o, 1, "", clustersched.FigureIDs(), func(p clustersched.BuildProgress) {
			b.sent++
			if p.Err != nil {
				b.failed++
			}
		})
		if err != nil {
			return err
		}
		if len(cellMS) != batchCellsPerRun {
			b.fail("round %d ran %d cells, want %d", r, len(cellMS), batchCellsPerRun)
		}
		if first == nil {
			first = rendered
		} else if !bytes.Equal(first, rendered) {
			b.fail("round %d rendered figures that differ from round 0", r)
		}
		sort.Float64s(cellMS)
		rate = append(rate, float64(len(cellMS)*batchJobs)/wallS)
		p50 = append(p50, percentile(cellMS, 50))
		tail = append(tail, percentile(cellMS, tailAt))
	}
	cpu1, err := cpuSeconds("self")
	if err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(first)
	digest := hex.EncodeToString(sum[:])
	fmt.Printf("  figures sha256 %s\n", digest)
	if b.seed == 1 && digest != figuresSHA256 {
		b.fail("figures digest %s differs from the frozen %s", digest, figuresSHA256)
	}

	recoverMS, err := b.batchRecover(o)
	if err != nil {
		return err
	}

	jobs := float64(rounds * batchCellsPerRun * batchJobs)
	b.put("setup_s", "s", summarize(setupS), "cold cycles")
	b.put("ops_per_s", "1/s", summarize(rate), "rounds, simulated jobs")
	b.put("op_p50_ms", "ms", summarize(p50), "rounds, one sweep cell")
	b.put("op_tail_ms", "ms", summarize(tail), fmt.Sprintf("rounds, p%g of the round's cells", tailAt))
	b.putValue("cpu_us_per_op", "us", (cpu1-cpu0)*1e6/jobs, "harness utime+stime over the timed rounds, per simulated job")
	b.put("recover_ms", "ms", summarize(recoverMS), "journal resumes")
	b.putValue("peak_rss_mb", "MB", rss, "harness VmHWM after the timed rounds")
	return nil
}

// batchRecover journals one figure-4 build, untimed, then times fresh
// builders that rebuild figure 4 wholly from that journal.
func (b *bench) batchRecover(o clustersched.Options) ([]float64, error) {
	journal := filepath.Join(b.tmp, "figure4.journal")
	var cells, fromJournal int
	count := func(p clustersched.BuildProgress) {
		cells++
		if p.FromJournal {
			fromJournal++
		}
	}
	figure4 := []string{"figure4"}
	_, _, want, err := buildFigures(o, 1, journal, figure4, count)
	if err != nil {
		return nil, err
	}
	var recoverMS []float64
	for i := 0; i < batchRecoverCycles; i++ {
		cells, fromJournal = 0, 0
		_, wallS, got, err := buildFigures(o, 1, journal, figure4, count)
		if err != nil {
			return nil, err
		}
		if fromJournal != cells || cells == 0 {
			b.fail("journal resume %d re-ran %d of %d cells", i, cells-fromJournal, cells)
		}
		if !bytes.Equal(got, want) {
			b.fail("journal resume %d rendered a different figure 4", i)
		}
		recoverMS = append(recoverMS, wallS*1e3)
	}
	return recoverMS, nil
}
