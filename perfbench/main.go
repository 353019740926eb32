// Command perfbench is the repository benchmark: three seeded workloads
// (hotspot, churn, loopback) that drive the pub/sub system through its
// public API, check every output against an oracle, and print the
// end-to-end metrics (or, with --trace 1, the per-layer breakdown).
//
// Usage:
//
//	perfbench --workload hotspot|churn|loopback|all --seed N --seconds S --trace 0|1
//
// The human-readable report goes to standard output; its last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The
// command exits nonzero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a timing (0 for derived figures).
	n int
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	// e2e are the user-visible metrics (reported with --trace 0), layer
	// the per-layer ones (--trace 1). extra holds figures printed in the
	// report but not part of the machine-readable line.
	e2e, layer, extra map[string]metric
	// lines is the free-form part of the report (checks, breakdowns).
	lines []string
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		extra:    map[string]metric{},
	}
}

// fail counts one failed operation (a returned error or a failed output
// check) and describes the first few in the report. Workloads count
// their attempted operations themselves.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		r.logf("CHECK FAILED: "+format, args...)
	}
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

type workloadFunc func(cfg config) (*result, error)

var workloads = map[string]workloadFunc{
	"hotspot":  runHotspot,
	"churn":    runChurn,
	"loopback": runLoopback,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "hotspot, churn, loopback or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"hotspot", "churn", "loopback"}
	} else if workloads[cfg.workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	fmt.Printf("perfbench seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d\n",
		cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		start := time.Now()
		res, err := workloads[name](c)
		if err == nil {
			err = res.finish(cfg.trace)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printReport(res, cfg.trace, time.Since(start))
		out.Attempted += res.attempted
		out.Failed += res.failed
		ms := res.e2e
		if cfg.trace {
			ms = res.layer
		}
		for k, m := range ms {
			if len(names) > 1 {
				k = name + "." + k
			}
			out.Metrics[k] = m
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printReport writes one workload's human-readable section.
func printReport(r *result, trace bool, took time.Duration) {
	fmt.Printf("\n== %s (%.1fs) checks: %d attempted, %d failed, error_rate %.6f\n",
		r.workload, took.Seconds(), r.attempted, r.failed, errorRate(r))
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Printf("-- %s\n", title)
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			m := ms[k]
			if m.n > 0 {
				fmt.Printf("  %-40s %14.4f %-6s (n=%d)\n", k, m.Value, m.Unit, m.n)
			} else {
				fmt.Printf("  %-40s %14.4f %s\n", k, m.Value, m.Unit)
			}
		}
	}
	if trace {
		section("per-layer metrics", r.layer)
	} else {
		section("end-to-end metrics", r.e2e)
	}
	section("workload figures", r.extra)
	for _, l := range r.lines {
		fmt.Println("  " + l)
	}
}

func errorRate(r *result) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}
