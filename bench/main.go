// Command bench is the repository's end-to-end benchmark. It drives the
// single-specification pipeline from outside — LIS spec → synthesized
// simulator → interface records → a consumer — through both execution
// backends (the closure interpreter and the AOT runner), timed at the same
// boundary: from the call that starts a run until the benchmark's consumer
// has seen that run's last record.
//
// It is its own module; bench/run.sh builds and runs it from the repository
// root:
//
//	sh bench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs all four workloads. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics, or with --trace 1 the per-layer metrics. The exit code
// is non-zero when any run failed its checks. README.md documents every
// metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		only    = flag.String("workload", "all", "workload to run: all, "+workloadNames())
		seed    = flag.Uint64("seed", 1, "picks kernel problem sizes, cell order and fault periods")
		seconds = flag.Float64("seconds", 10, "measurement time per workload, after set-up")
		traceOn = flag.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
		spans   = flag.String("spans", "", "file the traced run writes its spans to (default <workdir>/spans-<workload>.json)")
		workDir = flag.String("workdir", ".bench_build", "directory for runner caches and span files")
		quick   = flag.Bool("quick", false, "smoke test: alpha64 only, tiny sizes, one round")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// One client: this goroutine, on at most nproc threads of Go code.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var ws []workload
	if *only == "all" {
		ws = workloads
	} else {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *only, workloadNames())
			os.Exit(2)
		}
		ws = []workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceOn == 1, quick: *quick, workDir: *workDir}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		c := cfg
		if c.trace {
			c.spans = *spans
			if c.spans == "" || len(ws) > 1 {
				c.spans = filepath.Join(cfg.workDir, "spans-"+w.name+".json")
			}
		}
		res, err := runWorkload(w, c, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		total.merge(w.name, res, len(ws) > 1)
	}
	if err := writeResult(os.Stdout, total); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(total.exitCode())
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// merge folds one workload's result in; with several workloads the metric
// names are prefixed with the workload's.
func (r *result) merge(workload string, o result, prefix bool) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for name, m := range o.Metrics {
		if prefix {
			name = workload + "/" + name
		}
		r.Metrics[name] = m
	}
}

// exitCode is the process status for a result: any failed run, or a result
// that is not correct, makes the benchmark fail.
func (r result) exitCode() int {
	if r.Failed > 0 || !r.Correct || r.Attempted == 0 {
		return 1
	}
	return 0
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
