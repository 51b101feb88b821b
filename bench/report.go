package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// writeJSONLines writes one JSON document per line.
func writeJSONLines[T any](path string, items []T) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// finite maps the non-numbers JSON cannot carry to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// value looks a metric up in a result: end-to-end first, then the
// workload's named figures, then the per-layer ones.
func (r *result) value(name string) float64 {
	for _, m := range []map[string]float64{r.E2E, r.Named, r.Layer} {
		if v, ok := m[name]; ok {
			return finite(v)
		}
	}
	return 0
}

// runHarness is the BENCHMARK.json contract: one run, and as the last
// line of standard output one JSON object with the run's verdict and
// either every end-to-end metric (--trace 0) or every per-layer one.
func runHarness(ctx context.Context, cfg runConfig) error {
	res, err := runOne(ctx, cfg)
	if err != nil {
		return err
	}
	for _, msg := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed op:", msg)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{Value: res.value(d.Name), Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// runRecord is what identifies the numbers of one suite run.
func runRecord(cfg runConfig, sutProcs int) string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown (not a git checkout)"
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				commit = strings.TrimSpace(string(sha))
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs(generator)=%d gomaxprocs(sut)=%d seed=%d seconds=%d kernel=%s",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sutProcs, cfg.seed, cfg.seconds, strings.TrimSpace(string(kernel)))
}

// runSuite runs every workload twice — untraced for the end-to-end
// metrics, traced for the per-layer ones — and prints both tables.
func runSuite(ctx context.Context, cfg runConfig) error {
	failed := int64(0)
	for _, name := range workloadNames {
		cfg.workload = name
		cfg.trace = false
		e2e, err := runOne(ctx, cfg)
		if err != nil {
			return err
		}
		cfg.trace = true
		traced, err := runOne(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n%s\n", name, runRecord(cfg, e2e.SUTProcs))
		fmt.Printf("ops_attempted=%d ops_failed=%d (traced run: %d / %d)\n", e2e.Attempted, e2e.Failed, traced.Attempted, traced.Failed)
		for _, r := range []*result{e2e, traced} {
			for _, msg := range r.Failures {
				fmt.Println("  failed op:", msg)
			}
			failed += r.Failed
		}
		fmt.Println("end-to-end (untraced run):")
		for _, d := range endToEnd {
			fmt.Printf("  %-40s %14.4f %-6s (%s is better, bound %.0f%%)\n", d.Name, e2e.value(d.Name), d.Unit, d.Better, d.Bound*100)
		}
		fmt.Printf("  %-40s %v\n", "setup_s samples", e2e.Setups)
		fmt.Printf("  %-40s %14.0f\n", "op_ms_p50 / op_ms_p95 samples", e2e.value("op_samples"))
		fmt.Println("per-layer (traced run):")
		for _, d := range perLayer {
			fmt.Printf("  %-40s %14.4f %-6s\n", d.Name, traced.value(d.Name), d.Unit)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runAA runs two sets of n untraced runs per workload on the same
// code, each run with its own seed, and fails when a set's spread or
// the distance between the sets' medians exceeds a metric's bound.
func runAA(ctx context.Context, cfg runConfig, n int) error {
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	bad := 0
	for _, name := range names {
		cfg.workload, cfg.trace = name, false
		// sets holds the bounded metrics; raw the workload's own named
		// figures of the same runs, which carry no bound and are shown
		// as the evidence for that.
		var sets, raw [2]map[string][]float64
		for set := range sets {
			sets[set], raw[set] = map[string][]float64{}, map[string][]float64{}
			for i := 0; i < n; i++ {
				cfg.seed = int64(1 + set*n + i)
				res, err := runOne(ctx, cfg)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed: %v", name, cfg.seed, res.Failed, res.Attempted, res.Failures)
				}
				for _, d := range endToEnd {
					sets[set][d.Name] = append(sets[set][d.Name], res.value(d.Name))
				}
				for name, v := range res.Named {
					raw[set][name] = append(raw[set][name], finite(v))
				}
			}
		}
		fmt.Printf("== %s: A/A, %d runs per set ==\n", name, n)
		fmt.Printf("  %-24s %12s %8s %12s %8s %8s  %s\n", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "verdict")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			spread := math.Max(quartileSpread(a), quartileSpread(b))
			if worse > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict = fmt.Sprintf("EXCEEDS bound %.0f%%", d.Bound*100)
				bad++
			}
			fmt.Printf("  %-24s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%%  %s\n", d.Name, ma, quartileSpread(a)*100, mb, quartileSpread(b)*100, worse*100, verdict)
			sort.Float64s(a)
			sort.Float64s(b)
			fmt.Printf("      A=%.4g\n      B=%.4g\n", a, b)
		}
		fmt.Println("  as measured, not host-normalised, no bound:")
		names := make([]string, 0, len(raw[0]))
		for name := range raw[0] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := raw[0][name], raw[1][name]
			fmt.Printf("  %-24s %12.4f %7.1f%% %12.4f %7.1f%%\n", name, median(a), quartileSpread(a)*100, median(b), quartileSpread(b)*100)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs do not repeat within their bound", bad)
	}
	return nil
}
