// ssbench regenerates the paper's evaluation artifacts as markdown:
// Table I (description characteristics), Table II (simulation speed per
// interface), Table III (costs of detail), the headline speedup, and the
// design ablations. Measurement cells fan out across a worker pool; output
// is identical for any worker count (and byte-identical under -metric work,
// which reports deterministic engine work units instead of wall-clock
// MIPS). Cells are measured on the closure interpreter; the AOT runner
// backend is timed end to end by the benchmark module (sh bench/run.sh)
// and checked against the interpreter by the aot.DiffProgram suites.
//
// Usage:
//
//	ssbench                  # everything, quick settings
//	ssbench -table 2 -scale 4 -dur 500ms
//	ssbench -table 2 -parallel 1 -metric work   # serial, deterministic
//	ssbench -faults 42       # deterministic fault-injection campaign
//	ssbench -cell-timeout 30s -table 2          # watchdogged sweep
//	ssbench -metric work -metrics-out metrics.json   # counters + manifest
//
// A sweep interrupted by SIGINT/SIGTERM winds down cleanly (cells stop at
// the next watchdog check, and the tables and manifest are written with
// those cells marked interrupted) and exits 130/143.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"singlespec/internal/expt"
	"singlespec/internal/faultinj"
	"singlespec/internal/obs"
)

// Exit codes for a signal-interrupted run, per shell convention (128+N).
const (
	exitSIGINT  = 130
	exitSIGTERM = 143
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1|2|3), 0 = all")
	scale := flag.Int("scale", 2, "workload scale factor")
	dur := flag.Duration("dur", 200*time.Millisecond, "minimum measurement time per cell")
	ablate := flag.Bool("ablations", true, "include design ablations")
	parallel := flag.Int("parallel", runtime.NumCPU(), "measurement worker count")
	metricName := flag.String("metric", "mips", "table metric: mips (wall-clock) or work (deterministic work units)")
	faultSeed := flag.Int64("faults", -1, "run a fault-injection campaign with this seed instead of the tables (>= 0 enables)")
	faultEvents := flag.Int("fault-events", 4, "fault events attempted per campaign cell")
	faultClasses := flag.String("fault-classes", "all", "comma-separated fault classes (load,fetch,squash,syscall,codegen) or all")
	cellTimeout := flag.Duration("cell-timeout", 0, "wall-clock watchdog per measurement cell (0 disables); hung cells are marked errored instead of stalling the sweep")
	metricsOut := flag.String("metrics-out", "", "write a JSON run manifest + metrics snapshot to this file (see EXPERIMENTS.md)")
	benchOut := flag.String("bench-out", "", "write the Table II speed grid as JSON (schema "+expt.BenchSchema+") to this file; see RESULTS.md")
	flag.Parse()

	// Signal handling: the first SIGINT/SIGTERM asks the sweep to wind down
	// (running cells stop at the next cooperative watchdog check, then the
	// manifest is flushed and the process exits 130/143); a second signal
	// falls back to default disposition and kills immediately.
	interrupt := make(chan struct{})
	var sigExit atomic.Int32
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		if s == syscall.SIGTERM {
			sigExit.Store(exitSIGTERM)
		} else {
			sigExit.Store(exitSIGINT)
		}
		fmt.Fprintln(os.Stderr, "ssbench: signal received, winding down (signal again to kill)")
		close(interrupt)
		signal.Stop(sigCh)
	}()

	var reg *obs.Registry
	var man *obs.Manifest
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		man = obs.NewManifest("ssbench")
		flag.VisitAll(func(f *flag.Flag) { man.Flags[f.Name] = f.Value.String() })
	}
	// writeManifest flushes the manifest before any exit path; the snapshot
	// is taken here, after all instrumented work has quiesced.
	writeManifest := func() {
		if man == nil {
			return
		}
		man.Interrupted = sigExit.Load() != 0
		man.Metrics = reg.Snapshot()
		if err := man.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "ssbench:", err)
			os.Exit(1)
		}
	}

	if *faultSeed >= 0 {
		runFaultCampaign(faultCampaignOpts{
			seed: uint64(*faultSeed), events: *faultEvents, classSpec: *faultClasses,
			workers: *parallel, sigExit: &sigExit,
			reg: reg, man: man, writeManifest: writeManifest,
		})
		return
	}

	metric, err := expt.ParseMetric(*metricName)
	if err != nil {
		fatal(err)
	}
	cfg := expt.Config{Scale: *scale, MinDur: *dur, Workers: *parallel, Metric: metric,
		CellTimeout: *cellTimeout, Obs: reg, Interrupt: interrupt}

	if *table == 0 || *table == 1 {
		t1, err := expt.TableI()
		if err != nil {
			fatal(err)
		}
		fmt.Println("## Table I — Instruction set characteristics")
		fmt.Println()
		fmt.Println(t1)
	}
	if *table == 0 || *table == 2 || *table == 3 {
		if metric == expt.MetricWork {
			fmt.Println("## Table II — Deterministic work units per instruction (geometric mean over the kernel mix)")
		} else {
			fmt.Println("## Table II — Simulation speed (MIPS, geometric mean over the kernel mix)")
		}
		fmt.Println()
		cells, t2, err := expt.TableII(cfg)
		if err != nil {
			fatal(err)
		}
		if man != nil {
			man.Cells = append(man.Cells, expt.Outcomes(cells)...)
		}
		if *benchOut != "" {
			if err := expt.WriteBenchJSON(*benchOut, cfg, cells); err != nil {
				fatal(err)
			}
		}
		fmt.Println(t2)
		reportCellErrors(cells)
		fmt.Println("### Headline: lowest-detail vs. highest-detail interface")
		fmt.Println()
		fmt.Println(expt.Headline(cells, metric))
		if *table == 0 || *table == 3 {
			fmt.Println("## Table III — Costs of detail (base + increments)")
			fmt.Println()
			fmt.Println(expt.TableIII(cells))
		}
	}
	if *ablate && *table == 0 {
		fmt.Println("## Ablations (footnote 5 and DESIGN.md §6)")
		fmt.Println()
		aCells, ta, err := expt.Ablations(cfg)
		if err != nil {
			fatal(err)
		}
		if man != nil {
			man.Cells = append(man.Cells, expt.Outcomes(aCells)...)
		}
		fmt.Println(ta)
		reportCellErrors(aCells)
	}
	writeManifest()
	if code := sigExit.Load(); code != 0 {
		fmt.Fprintln(os.Stderr, "ssbench: interrupted; manifest flushed")
		os.Exit(int(code))
	}
	if sawCellErrors {
		os.Exit(1)
	}
}

// sawCellErrors records that a sweep rendered with error-marked cells, so
// the process can exit nonzero after printing every table it was asked for
// (the degraded-table contract: tables always render to completion).
var sawCellErrors bool

// reportCellErrors prints the typed error behind every ERR:-marked cell.
func reportCellErrors(cells []expt.Cell) {
	for _, ce := range expt.CellErrors(cells) {
		sawCellErrors = true
		fmt.Fprintf(os.Stderr, "ssbench: cell error: %v\n", ce)
	}
}

// faultCampaignOpts carries the campaign's flag surface.
type faultCampaignOpts struct {
	seed      uint64
	events    int
	classSpec string
	workers   int
	sigExit   *atomic.Int32

	reg           *obs.Registry
	man           *obs.Manifest
	writeManifest func()
}

// runFaultCampaign runs the deterministic fault-injection campaign and
// exits nonzero if any cell diverged or errored. The manifest (when
// requested) is written before any exit, so failed campaigns still leave
// their metrics behind.
func runFaultCampaign(o faultCampaignOpts) {
	classes, err := faultinj.ParseClasses(o.classSpec)
	if err != nil {
		fatal(err)
	}
	cfg := faultinj.Config{
		Seed: o.seed, Events: o.events, Workers: o.workers, Classes: classes, Obs: o.reg,
	}

	rep, err := faultinj.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## Fault-injection campaign")
	fmt.Println()
	fmt.Print(rep)
	if o.man != nil {
		o.man.Cells = append(o.man.Cells, rep.Outcomes()...)
	}
	o.writeManifest()
	if code := o.sigExit.Load(); code != 0 {
		fmt.Fprintln(os.Stderr, "ssbench: interrupted; manifest flushed")
		os.Exit(int(code))
	}
	if n := len(rep.Failures()); n > 0 {
		fatal(fmt.Errorf("%d campaign cell(s) failed", n))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssbench:", err)
	os.Exit(1)
}
