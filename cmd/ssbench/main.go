// ssbench regenerates the paper's evaluation artifacts as markdown:
// Table I (description characteristics), Table II (simulation speed per
// interface), Table III (costs of detail), the headline speedup, and the
// design ablations. Measurement cells run one at a time, so a timed cell
// never shares the host with another; under -metric work, which reports
// deterministic engine work units instead of wall-clock MIPS, the output is
// byte-identical from run to run. Cells are measured on the closure
// interpreter; the AOT runner backend is timed end to end by the benchmark
// module (sh bench/run.sh) and checked against the interpreter by the
// aot.DiffProgram suites.
//
// Usage:
//
//	ssbench                  # everything, quick settings
//	ssbench -table 2 -scale 4 -dur 500ms
//	ssbench -table 2 -metric work       # deterministic
//	ssbench -faults 42       # deterministic fault-injection campaign
//	ssbench -metric work -metrics-out metrics.json   # counters + manifest
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"singlespec/internal/expt"
	"singlespec/internal/faultinj"
	"singlespec/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1|2|3), 0 = all tables and the ablations")
	scale := flag.Int("scale", 2, "workload scale factor (>= 1)")
	dur := flag.Duration("dur", 200*time.Millisecond, "minimum measurement time per cell")
	metricName := flag.String("metric", "mips", "table metric: mips (wall-clock) or work (deterministic work units)")
	faultSeed := flag.Int64("faults", -1, "run a fault-injection campaign with this seed instead of the tables (>= 0 enables)")
	faultEvents := flag.Int("fault-events", 4, "fault events attempted per campaign cell (>= 1)")
	faultClasses := flag.String("fault-classes", "all", "comma-separated fault classes (load,fetch,squash,syscall,codegen) or all")
	metricsOut := flag.String("metrics-out", "", "write a JSON run manifest + metrics snapshot to this file (see EXPERIMENTS.md)")
	benchOut := flag.String("bench-out", "", "write the Table II speed grid as JSON (schema "+expt.BenchSchema+") to this file; see RESULTS.md")
	flag.Parse()

	metric, metricErr := expt.ParseMetric(*metricName)
	classes, classErr := faultinj.ParseClasses(*faultClasses)
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := errors.Join(metricErr, classErr, checkFlags(*table, *scale, *faultSeed, *faultEvents, *benchOut, set)); err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(2)
	}

	var reg *obs.Registry
	var man *obs.Manifest
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		man = obs.NewManifest("ssbench")
		flag.VisitAll(func(f *flag.Flag) { man.Flags[f.Name] = f.Value.String() })
	}
	// writeManifest flushes the manifest before any exit path; the snapshot
	// is taken here, after all instrumented work has finished.
	writeManifest := func() {
		if man == nil {
			return
		}
		man.Metrics = reg.Snapshot()
		if err := man.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "ssbench:", err)
			os.Exit(1)
		}
	}

	if *faultSeed >= 0 {
		runFaultCampaign(faultCampaignOpts{
			seed: uint64(*faultSeed), events: *faultEvents, classes: classes,
			reg: reg, man: man, writeManifest: writeManifest,
		})
		return
	}

	cfg := expt.Config{Scale: *scale, MinDur: *dur, Metric: metric, Obs: reg}

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
	if *table == 0 {
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
	if sawCellErrors {
		os.Exit(1)
	}
}

// checkFlags rejects flag values that would do nothing or be silently
// replaced, and flags set (named in set) for the mode ssbench is not
// running; ssbench reports them as usage errors before any work starts.
func checkFlags(table, scale int, faultSeed int64, faultEvents int, benchOut string, set map[string]bool) error {
	campaign := faultSeed >= 0
	for _, name := range []string{"table", "scale", "dur", "metric"} {
		if campaign && set[name] {
			return fmt.Errorf("-%s sets up the tables, which a -faults campaign does not measure", name)
		}
	}
	for _, name := range []string{"fault-events", "fault-classes"} {
		if !campaign && set[name] {
			return fmt.Errorf("-%s configures a -faults campaign, and none was asked for", name)
		}
	}
	switch {
	case table < 0 || table > 3:
		return fmt.Errorf("-table %d: want 0 (all), 1, 2 or 3", table)
	case scale < 1:
		return fmt.Errorf("-scale %d: want at least 1", scale)
	case faultEvents < 1:
		return fmt.Errorf("-fault-events %d: want at least 1", faultEvents)
	case benchOut != "" && campaign:
		return errors.New("-bench-out writes the Table II grid, which a -faults campaign does not measure")
	case benchOut != "" && table == 1:
		return errors.New("-bench-out writes the Table II grid, which -table 1 does not measure")
	}
	return nil
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
	seed    uint64
	events  int
	classes []faultinj.Class

	reg           *obs.Registry
	man           *obs.Manifest
	writeManifest func()
}

// runFaultCampaign runs the deterministic fault-injection campaign and
// exits nonzero if any cell diverged or errored. The manifest (when
// requested) is written before any exit, so failed campaigns still leave
// their metrics behind.
func runFaultCampaign(o faultCampaignOpts) {
	cfg := faultinj.Config{Seed: o.seed, Events: o.events, Classes: o.classes, Obs: o.reg}
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
	if n := len(rep.Failures()); n > 0 {
		fatal(fmt.Errorf("%d campaign cell(s) failed", n))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssbench:", err)
	os.Exit(1)
}
