package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// trajectoryLine is one line of BENCH_TRAJECTORY.json: what one PR
// measured for one (workload, metric) of BENCHMARK.json — the medians of
// its parent and change runs, interleaved in pairs. Better counts the
// pairs in which the change was better (null when the runs were not
// paired), ParentIQR is the parent's q3−q1, HostSpeed the lowest and
// highest gen.host_speed of traced runs, Commit is null on the lines a
// PR adds about itself, and Source says whether the PR ran the numbers
// ("run") or a later one copied them from CHANGES.md ("backfill").
type trajectoryLine struct {
	PR        int       `json:"pr"`
	Commit    string    `json:"commit"`
	Kind      string    `json:"kind"`
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Parent    float64   `json:"parent"`
	Change    float64   `json:"change"`
	Pairs     int       `json:"pairs"`
	Better    *int      `json:"better"`
	ParentIQR *float64  `json:"parent_iqr"`
	Seeds     []int     `json:"seeds"`
	HostSpeed []float64 `json:"host_speed"`
	Source    string    `json:"source"`
}

// TestBenchTrajectoryNamesMatchBenchmark holds BENCH_TRAJECTORY.json to
// its layout (a JSON array, one object per line, in PR order) and its
// names to BENCHMARK.json: every workload is a declared workload and
// every metric a declared end-to-end or per-layer metric. It then logs,
// per workload and metric, each PR's parent median beside the change
// median of the PR before it. A parent far from the previous change
// (further than the metric's A/A spread) is drift or an unclaimed
// regression for a reader to chase; the chain itself never fails.
func TestBenchTrajectoryNamesMatchBenchmark(t *testing.T) {
	var bench struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	metrics, workloads := map[string]bool{}, map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}

	raw, err = os.ReadFile("BENCH_TRAJECTORY.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(rows) < 3 || rows[0] != "[" || rows[len(rows)-1] != "]" {
		t.Fatal(`BENCH_TRAJECTORY.json: want "[", one object per line, "]"`)
	}
	var lines []trajectoryLine
	for i, row := range rows[1 : len(rows)-1] {
		dec := json.NewDecoder(bytes.NewReader([]byte(strings.TrimSuffix(row, ","))))
		dec.DisallowUnknownFields()
		var l trajectoryLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("line %d: %v", i+2, err)
		}
		lines = append(lines, l)
	}
	var all []trajectoryLine
	if err := json.Unmarshal(raw, &all); err != nil || len(all) != len(lines) {
		t.Fatalf("BENCH_TRAJECTORY.json is not one JSON array of its lines: %v", err)
	}
	for i, l := range lines {
		where := fmt.Sprintf("line %d (PR %d %s %s)", i+2, l.PR, l.Workload, l.Metric)
		switch {
		case !workloads[l.Workload]:
			t.Errorf("%s: workload not in BENCHMARK.json", where)
		case !metrics[l.Metric]:
			t.Errorf("%s: metric not in BENCHMARK.json", where)
		case l.Source != "run" && l.Source != "backfill":
			t.Errorf("%s: source %q, want run or backfill", where, l.Source)
		case i > 0 && l.PR < lines[i-1].PR:
			t.Errorf("%s: out of PR order", where)
		case l.Pairs <= 0 || len(l.Seeds) == 0:
			t.Errorf("%s: no pairs or seeds", where)
		}
	}

	type series struct{ workload, metric string }
	chains := map[series][]trajectoryLine{}
	var keys []series
	for _, l := range lines {
		k := series{l.Workload, l.Metric}
		if chains[k] == nil {
			keys = append(keys, k)
		}
		chains[k] = append(chains[k], l)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		var b strings.Builder
		for i, l := range chains[k] {
			if i > 0 {
				prev := chains[k][i-1].Change
				fmt.Fprintf(&b, " | PR %d parent %.4g (previous change %.4g, %+.1f%%)", l.PR, l.Parent, prev, 100*(l.Parent-prev)/prev)
			} else {
				fmt.Fprintf(&b, "PR %d parent %.4g", l.PR, l.Parent)
			}
			fmt.Fprintf(&b, " → change %.4g", l.Change)
		}
		t.Logf("%s %s: %s", k.workload, k.metric, b.String())
	}
}
