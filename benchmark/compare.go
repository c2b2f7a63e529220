package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spreadShare is the distance between a measure's quartiles over its
// repetitions, as a share of its median.
func spreadShare(m measure) float64 {
	if m.Value == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

// verdict judges one (metric, workload) row: b against a, by the metric's
// own bound. A side whose own spread is wider than the bound cannot
// resolve a difference of that size. A recorded tail has no bound and is
// shown without a judgement.
func verdict(def metricDef, a, b measure) (string, float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case def.Bound == 0:
		return "recorded", worse
	case a.Value == b.Value:
		return "unchanged", 0
	case spreadShare(a) > def.Bound || spreadShare(b) > def.Bound:
		return "unresolved", worse
	case worse > def.Bound:
		return "regressed", worse
	case worse < -def.Bound:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// compareFiles prints one row per end-to-end metric and workload found in
// both files' untraced results. It returns non-zero when a row regressed
// or b failed a larger share of its ops than a.
func compareFiles(pathA, pathB string) int {
	fa, err := readResults(pathA)
	if err == nil {
		var fb *resultsFile
		if fb, err = readResults(pathB); err == nil {
			return compareResults(fa, fb)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
	return 2
}

func compareResults(fa, fb *resultsFile) int {
	if fa.Environment != fb.Environment {
		fmt.Printf("note: environments differ: %+v vs %+v\n", fa.Environment, fb.Environment)
	}
	byName := map[string]*runResult{}
	for _, r := range fa.Results {
		if !r.Traced {
			byName[r.Workload] = r
		}
	}
	code := 0
	counts := map[string]int{}
	fmt.Printf("%-20s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, rb := range fb.Results {
		ra := byName[rb.Workload]
		if rb.Traced || ra == nil {
			continue
		}
		for _, def := range untraced() {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			v, worse := verdict(def, ma, mb)
			counts[v]++
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-20s %-26s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				rb.Workload, def.Name, ma.Value, mb.Value, 100*worse, 100*def.Bound, v)
		}
		shareA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		shareB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		if shareB > shareA {
			fmt.Printf("%-20s failed ops: %d of %d, was %d of %d\n", rb.Workload, rb.Failed, rb.Attempted, ra.Failed, ra.Attempted)
			code = 1
		}
		if ra.Noisy || rb.Noisy {
			fmt.Printf("%-20s note: a run was stamped noisy (calibration drifted more than 10%%)\n", rb.Workload)
		}
	}
	fmt.Printf("improved %d  unchanged %d  regressed %d  unresolved %d  (recorded, no bound: %d)\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"], counts["recorded"])
	return code
}
