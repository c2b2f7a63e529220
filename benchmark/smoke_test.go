package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestRegistryMatchesBenchmarkJSON fails when the names, units,
// directions or bounds in the code and in BENCHMARK.json drift apart.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, j, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, j, m)
		}
	}
}

// TestEveryWorkloadAtTinyScale runs both passes of every workload with all
// checks on: no op may fail, and every registered metric must come out
// with its unit under a well-formed name.
func TestEveryWorkloadAtTinyScale(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, pass := range []struct {
				traced   bool
				defs     []metricDef // what the pass measures
				contract []metricDef // what its result line holds
			}{{false, untraced(), endToEnd}, {true, perLayer, perLayer}} {
				e := &env{seed: 1, sc: tinyScale, workDir: t.TempDir()}
				var res *runResult
				if pass.traced {
					res = runTraced(ctx, w, e, defaultSeconds)
				} else {
					res = runWorkload(ctx, w, e, defaultSeconds)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d: %v", pass.traced, res.Attempted, res.Failed, res.Failures)
				}
				if len(res.Metrics) != len(pass.defs) {
					t.Errorf("traced=%v: %d metrics emitted, %d registered", pass.traced, len(res.Metrics), len(pass.defs))
				}
				for _, def := range pass.defs {
					m, ok := res.Metrics[def.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s not emitted", pass.traced, def.Name)
					case m.Unit == "" || m.Unit != def.Unit:
						t.Errorf("metric %s: unit %q, registered %q", def.Name, m.Unit, def.Unit)
					case !nameRE.MatchString(def.Name):
						t.Errorf("metric name %q is malformed", def.Name)
					}
				}
			}
		})
	}
}
