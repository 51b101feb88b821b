// Command allocsmoke is CI's allocation-regression gate for the hot
// paths. It reads `go test -bench` output on stdin, extracts the
// "allocs/row" (H benchmarks) or "allocs/response"
// (BenchmarkGzipMiddleware) metric, and compares each sub-benchmark
// against the ceilings in a checked-in thresholds file:
//
//	go test -run '^$' -bench 'BenchmarkH[12]' -benchtime 1x . | allocsmoke -thresholds hotalloc_ci.json
//
// The thresholds file maps sub-benchmark names (with any -<procs>
// suffix stripped) to the maximum tolerated allocs per row or response. A benchmark
// above its ceiling, or a ceiling whose benchmark never ran (a rename
// must not silently disarm the gate), exits non-zero. Benchmarks
// without a ceiling entry pass through unchecked — CSV encode, for
// example, is reported for reference only.
//
// Raw allocs/row, not a benchstat delta, is deliberate: the metric
// counts mallocs per row over the whole op, so it is stable at
// -benchtime=1x on a noisy shared runner where timing comparisons are
// not, and the ceilings (see BENCH_hotpath.json for measured values an
// order of magnitude below them) leave room for scheduling jitter
// without room for an accidental per-row allocation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	thresholds := flag.String("thresholds", "hotalloc_ci.json", "JSON file mapping benchmark name -> max allocs per row or response")
	flag.Parse()

	raw, err := os.ReadFile(*thresholds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocsmoke:", err)
		os.Exit(2)
	}
	var file struct {
		Note     string             `json:"note"`
		Ceilings map[string]float64 `json:"ceilings"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		fmt.Fprintf(os.Stderr, "allocsmoke: %s: %v\n", *thresholds, err)
		os.Exit(2)
	}

	seen := make(map[string]float64)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through for the CI log
		name, allocs, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		// Keep the worst observation if a benchmark ran more than once.
		if prev, dup := seen[name]; !dup || allocs > prev {
			seen[name] = allocs
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "allocsmoke: read stdin:", err)
		os.Exit(2)
	}

	failed := false
	for name, max := range file.Ceilings {
		got, ran := seen[name]
		switch {
		case !ran:
			fmt.Fprintf(os.Stderr, "allocsmoke: FAIL %s: benchmark did not run (renamed? the ceiling in %s must follow)\n", name, *thresholds)
			failed = true
		case got > max:
			fmt.Fprintf(os.Stderr, "allocsmoke: FAIL %s: %g allocs exceeds ceiling %g\n", name, got, max)
			failed = true
		default:
			fmt.Fprintf(os.Stderr, "allocsmoke: ok   %s: %g allocs (ceiling %g)\n", name, got, max)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parseBenchLine extracts (benchmark name, allocs per unit) from one line of
// go test -bench output, e.g.
//
//	BenchmarkH1_IngestAllocs/transport=ndjson-4   20   7579028 ns/op   0.0139 allocs/row   ...
//
// The -<procs> suffix testing appends to the name is stripped so
// thresholds are portable across runner core counts.
func parseBenchLine(line string) (string, float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	for i := 2; i+1 < len(fields); i++ {
		// A custom per-unit metric (allocs/row, allocs/response), not
		// testing's own allocs/op.
		if unit := fields[i+1]; !strings.HasPrefix(unit, "allocs/") || unit == "allocs/op" {
			continue
		}
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, false
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		return name, v, true
	}
	return "", 0, false
}
