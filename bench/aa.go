package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a child process, the way the benchmark's
// consumers do, and parses the result object on its last line.
func (b *bench) runChild(workload string) (contractResult, error) {
	var res contractResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", workload,
		"-seed", strconv.FormatUint(b.seed, 10), "-seconds", strconv.Itoa(b.seconds))
	cmd.Dir = b.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: %w\n%s", workload, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result object: %w", workload, err)
	}
	return res, nil
}

// runAA runs every workload twice on the same seed and prints, for each
// end-to-end metric, how far the two runs of identical code disagree
// beside the bound a regression is judged by. It fails when any pair
// disagrees by more than its bound: a benchmark that cannot tell a
// commit from itself cannot carry a claim about two commits.
func (b *bench) runAA(bf benchmarkFile) error {
	exceeded := 0
	for _, w := range bf.Workloads {
		first, err := b.runChild(w.Name)
		if err != nil {
			return err
		}
		second, err := b.runChild(w.Name)
		if err != nil {
			return err
		}
		fmt.Printf("%s  seed %d  correct %v/%v  failed %d/%d\n", w.Name, b.seed, first.Correct, second.Correct, first.Failed, second.Failed)
		if !first.Correct || !second.Correct {
			exceeded++
		}
		for _, d := range bf.EndToEnd {
			a, c := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
			rel := math.Abs(c-a) / a
			verdict := "ok"
			if rel > d.Bound {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Printf("  %-14s %14.4f %14.4f %-5s diff %5.1f %%  bound %4.1f %%  %s\n",
				d.Name, a, c, d.Unit, 100*rel, 100*d.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d comparisons exceed their bound", exceeded)
	}
	return nil
}
