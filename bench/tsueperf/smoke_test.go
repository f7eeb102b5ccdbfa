package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON mirrors the keys of BENCHMARK.json this test pins.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json and spec.go from
// drifting apart: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, %d in main.go", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if g := bj.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
	}
}

func names(m map[string]stat) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func declared(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, m := range defs {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload at a tiny size, traced pass included: the
// verify gate must pass, and the metric names emitted must be exactly the
// ones declared.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // two cores: the four tiny runs fit in the time of two
			cfg := config{workload: w.name, seed: 1, scale: 0.06, fileMB: 12, iters: 1, traced: true,
				driverTime: time.Millisecond, outDir: t.TempDir()}
			rep, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			if rep.stripes == 0 || rep.slots == 0 {
				t.Errorf("verify gate checked %d stripes and %d slots", rep.stripes, rep.slots)
			}
			if got, want := names(rep.EndToEnd), declared(endToEnd); !equal(got, want) {
				t.Errorf("end-to-end names emitted\n%v\nwant\n%v", got, want)
			}
			if got, want := names(rep.PerLayer), declared(perLayer); !equal(got, want) {
				t.Errorf("per-layer names emitted\n%v\nwant\n%v", got, want)
			}
			if _, err := os.Stat(rep.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
