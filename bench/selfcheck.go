package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadID `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workloadID struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// measureOnce runs one untraced pass in a process of its own, the way
// the driver does, and returns the metrics of its result line.
func measureOnce(workload string, seed uint64, seconds float64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, line.Correct, line.Failed)
	}
	vals := make(map[string]float64)
	for name, v := range line.Metrics {
		vals[name] = v.Value
	}
	return vals, nil
}

// runSelfcheck applies the benchmark's acceptance rule to itself: two
// sets of runs per workload, each run on another seed. For every
// end-to-end metric it prints each set's median and spread (the
// interquartile range as a share of the median) and how much worse
// the second median is than the first, against the metric's bound in
// BENCHMARK.json. It fails when a spread (setup_s exempt) or a drift
// exceeds its bound, and prints each metric's calibrated bound: twice
// its widest spread, at least 10%, at most the 25% cap. A metric whose
// spread exceeds the cap cannot be bounded and belongs with the
// per-layer diagnostics.
func runSelfcheck(runs int, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return err
	}
	worst := make(map[string]float64)
	failed := false
	fmt.Printf("| workload | metric | median A | spread A | median B | spread B | B worse by | bound | ok |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range bf.Workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				vals, err := measureOnce(wl.Name, uint64(1+set*runs+r), seconds)
				if err != nil {
					return err
				}
				for name, v := range vals {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		for _, ms := range bf.EndToEnd {
			a, b := sets[0][ms.Name], sets[1][ms.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if ms.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			ok := worse <= ms.Bound
			if ms.Name != "setup_s" {
				ok = ok && sa <= ms.Bound && sb <= ms.Bound
				worst[ms.Name] = math.Max(worst[ms.Name], math.Max(sa, sb))
			}
			failed = failed || !ok
			fmt.Printf("| %s | %s | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %.0f%% | %v |\n",
				wl.Name, ms.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*ms.Bound, ok)
		}
	}
	fmt.Printf("\n| metric | widest spread | bound | spread within a third of the bound | calibrated bound |\n|---|---|---|---|---|\n")
	for _, ms := range bf.EndToEnd {
		if ms.Name == "setup_s" {
			continue
		}
		calibrated := fmt.Sprintf("%.0f%%", 100*math.Min(0.25, math.Max(0.10, 2*worst[ms.Name])))
		if worst[ms.Name] > 0.25 {
			calibrated = "none: demote the metric"
		}
		fmt.Printf("| %s | %.1f%% | %.0f%% | %v | %s |\n", ms.Name, 100*worst[ms.Name], 100*ms.Bound, worst[ms.Name] <= ms.Bound/3, calibrated)
	}
	if failed {
		return fmt.Errorf("selfcheck: a spread or a drift exceeds its bound")
	}
	return nil
}
