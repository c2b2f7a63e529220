// Command benchmark is the repository's benchmark: five closed-loop
// workloads over an 8-site XMark deployment, every input generated from
// the seed, every answer checked. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", defaultSeconds, "run length the op counts are scaled to")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out     = flag.String("out", "", "write the full results (spread, environment) to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	// Scratch space stays inside the checkout and is removed at exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	// The traced pass keeps its spans in memory and writes them here when
	// the workload is done.
	traceDir := filepath.Join("benchmark", "out")
	if *out != "" {
		traceDir = filepath.Dir(*out)
	}

	ctx := context.Background()
	// One env for the whole invocation: its counter keeps the scratch
	// directories of successive workloads apart.
	e := &env{seed: *seed, sc: fullScale, workDir: workDir}
	var results []*runResult
	for _, w := range selected {
		var res *runResult
		if *trace == 1 {
			res = runTraced(ctx, w, e, *seconds)
		} else {
			res = runWorkload(ctx, w, e, *seconds)
		}
		results = append(results, res)
		printResult(res)
		if err := writeTrace(traceDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for _, res := range results {
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Environment environment  `json:"environment"`
	FlushPolicy string       `json:"flush_policy"`
	EndToEnd    []metricDef  `json:"end_to_end"`
	Recorded    []metricDef  `json:"recorded"`
	PerLayer    []metricDef  `json:"per_layer"`
	Results     []*runResult `json:"results"`
}

const flushPolicy = "WAL records are appended without fsync (parbox.WithDurability without WithSyncWrites); checkpoints sync"

func writeResults(path string, results []*runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultsFile{Environment: stampEnvironment(), FlushPolicy: flushPolicy, EndToEnd: endToEnd, Recorded: recorded, PerLayer: perLayer, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeTrace(dir string, res *runResult) error {
	if len(res.trace) == 0 {
		return nil
	}
	data, err := json.Marshal(res.trace)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.Workload+".json"), data, 0o644)
}

// printResult prints every metric by name with its unit, then — as the
// last line — the result line.
func printResult(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("# %s  seed %d  %s pass  %.1f s wall  attempted %d  failed %d  noisy %v\n",
		res.Workload, res.Seed, pass, res.WallSeconds, res.Attempted, res.Failed, res.Noisy)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.4f %-6s [%.4f .. %.4f]\n", name, m.Value, m.Unit, m.Min, m.Max)
	}
	for _, msg := range res.Failures {
		fmt.Printf("FAILED: %s\n", msg)
	}
	fmt.Println(string(resultLine(res)))
}

// resultLine is the one JSON object a driver reads: exactly the pass's
// contract metrics, without the recorded tails.
func resultLine(res *runResult) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		if m, ok := res.Metrics[def.Name]; ok {
			line.Metrics[def.Name] = value{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(line)
	return b
}
