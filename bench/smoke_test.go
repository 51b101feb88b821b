package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// smoke test re-executes it as the SUT child.
func TestMain(m *testing.M) {
	serveMain()
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs each workload for one second at smoke
// sizes against a real child SUT: the whole path — boot, corpus load,
// load generation, oracle, crash check — with no operation failing.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child processes")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := runOne(context.Background(), runConfig{workload: name, seed: 1, seconds: 1, quick: true, outDir: filepath.Join(t.TempDir(), "out")})
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range endToEnd {
				if v := res.value(d.Name); v <= 0 {
					t.Errorf("%s = %v, want a positive figure", d.Name, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheCode holds the committed contract file to
// the metric and workload lists the code emits.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default window is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line why", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: file has %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}
