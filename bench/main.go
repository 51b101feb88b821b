// Command bench is the district benchmark: four end-to-end workloads
// driven over loopback HTTP against a separate SUT process, a per-layer
// budget from a traced phase and in-process probes, and the checks
// that every answer matches a reference computed from the seed.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (BENCHMARK.json contract)
//	go run ./bench -seed N                                         the whole suite, human-readable
//	go run ./bench -aa K                                           two sets of K runs per workload; fail when they disagree
//
// See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
)

func main() {
	serveMain()
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (default: the whole suite)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "timed window of one run, in seconds")
		trace        = flag.Int("trace", 0, "1: report the per-layer metrics (traced phase + probes) instead of the end-to-end ones")
		aa           = flag.Int("aa", 0, "run the suite N times per set, two sets, and fail when the sets disagree beyond a metric's bound")
		quick        = flag.Bool("quick", false, "smoke sizes: small corpus, one set-up")
		out          = flag.String("out", filepath.Join("bench", "out"), "scratch and trace output directory")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := runConfig{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: *out}
	var err error
	switch {
	case *aa > 0:
		err = runAA(ctx, cfg, *aa)
	case *workloadName != "":
		err = runHarness(ctx, cfg)
	default:
		err = runSuite(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
