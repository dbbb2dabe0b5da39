// Command perfbench is the DataLife repository benchmark. One invocation runs
// one workload for a fixed wall-clock window and prints, as the last line of
// standard output, a JSON record with the attempted and failed op counts, a
// correctness verdict, and either the end-to-end metrics (-trace 0) or the
// per-layer breakdown from a traced run (-trace 1).
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload belle2-batch --seed 1 --seconds 20 --trace 0
//
// Workloads: belle2-batch, wide-batch, serve-mixed. See README.md beside this
// file for what each measures and which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLimit bounds one invocation's wall time: a hang fails the run instead of
// stalling whoever drives the benchmark.
const runLimit = 170 * time.Second

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// work is the directory for journals and span files; it lives on the
	// same filesystem as the checkout.
	work string
	// ops, when positive, replaces the timed window with a fixed op count
	// (batch reports or serve batches); the seed self-test uses it so two
	// runs are comparable op for op.
	ops int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns: the printed result plus the
// details the self-tests and the run record use.
type outcome struct {
	res result
	// digest fingerprints the run's correctness-checked outputs; equal seeds
	// must give equal digests.
	digest string
	// samples counts the timed latency samples behind each percentile.
	samples map[string]int
}

type workload struct {
	name string
	run  func(cfg config) (outcome, error)
}

var workloads = []workload{
	{"belle2-batch", runBelle2},
	{"wide-batch", runWide},
	{"serve-mixed", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: belle2-batch, wide-batch, serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for journals and spans")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.setups = 7

	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: -trace must be 0 or 1\n", w.name)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: -seconds must be positive\n", w.name)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	// Each run gets its own scratch directory, removed on every exit path
	// including the watchdog's.
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	cfg.work = dir
	watchdog := startWatchdog(w.name, dir)

	out, err := w.run(cfg)
	watchdog.Stop()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	info := map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    traceFlag,
		"digest":   out.digest,
		"samples":  out.samples,
		"host":     hostInfo(filepath.Dir(dir)),
	}
	emit(info)
	emit(out.res)
}

// startWatchdog fails the run, after removing its scratch directory, once it
// has run for runLimit.
//
//dflvet:allow walltime a hang is bounded in wall-clock time by definition
func startWatchdog(name, dir string) *time.Timer {
	return time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v\n", name, runLimit)
		os.RemoveAll(dir)
		os.Exit(3)
	})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
