package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"singlespec/bench/dist"
	"singlespec/internal/core"
	"singlespec/internal/obs"
	"singlespec/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"mips_interp", "MIPS"},
	{"mips_aot", "MIPS"},
	{"p90_ns_per_instr_interp", "ns/instr"},
	{"p90_ns_per_instr_aot", "ns/instr"},
	{"setup_s", "s"},
	{"host_rss_mb", "MiB"},
}

// perLayer are the per-layer metrics a traced run puts in its result line,
// in BENCHMARK.json order: the ones every workload exercises. The traced
// run prints the workload-specific rest (README.md lists them all).
var perLayer = []metricDef{
	{"lis.load_ms", "ms"},
	{"core.synth_ms", "ms"},
	{"aot.emit_ms", "ms"},
	{"aot.build_ms", "ms"},
	{"aot.spawn_ms", "ms"},
	{"aot.init_ms", "ms"},
	{"core.exec_ns_per_instr", "ns/instr"},
	{"core.calls_per_instr", "calls/instr"},
	{"core.records_per_instr", "records/instr"},
	{"core.work_per_instr", "work/instr"},
	{"core.translations", "count"},
	{"aot.run_ns_per_instr", "ns/instr"},
	{"aot.runner_ns_per_instr", "ns/instr"},
	{"aot.transport_ns_per_instr", "ns/instr"},
	{"aot.records_per_instr", "records/instr"},
	{"aot.proto_bytes_per_instr", "B/instr"},
	{"host.alloc_bytes_per_instr", "B/instr"},
	{"trace.overhead_frac", "frac"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Host time on a shared machine only ever gets slower than the simulator
// itself: contention from other tenants stretches runs by up to a fifth in
// bursts (CPU time stretches with wall time, so it is not descheduling).
// The time metrics therefore take each (cell, kernel) pair's fastest run
// over the rounds, which repeats to within a few percent where a per-round
// median does not.

// best returns the fastest of runs, in ns/instr.
func best(runs []float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	m := runs[0]
	for _, v := range runs[1:] {
		m = min(m, v)
	}
	return m
}

// pairs returns the best ns/instr of every (cell, kernel) pair the keep
// function accepts, over untraced (t = 0) or traced (t = 1) rounds.
func (b *bench) pairs(t int, keep func(*cell) bool) []float64 {
	var out []float64
	for _, c := range b.cells {
		if !keep(c) {
			continue
		}
		for _, runs := range c.runs[t] {
			if v := best(runs); v > 0 {
				out = append(out, v)
			}
		}
	}
	return out
}

// mips is the geometric mean of nsPerInstr as simulated instructions per
// host µs.
func mips(nsPerInstr []float64) float64 {
	if len(nsPerInstr) == 0 {
		return 0
	}
	v := make([]float64, len(nsPerInstr))
	for i, ns := range nsPerInstr {
		v[i] = 1e3 / ns
	}
	return stats.GeoMean(v)
}

func isBackend(k backend) func(*cell) bool {
	return func(c *cell) bool { return c.backend == k }
}

// report prints the workload's human-readable report and returns its
// result line: the end-to-end metrics, or the per-layer ones when traced.
func (b *bench) report(out io.Writer, setups []float64) result {
	res := result{Correct: b.ops.failed == 0, Attempted: b.ops.attempted, Failed: b.ops.failed, Metrics: map[string]metric{}}
	kind := "untraced"
	if b.cfg.trace {
		kind = "traced"
	}
	fmt.Fprintf(out, "== %s (%s): seed %d, isas %s, %d rounds, %d runs, %d failed\n",
		b.w.name, kind, b.cfg.seed, strings.Join(b.isas, ","), b.rounds, b.ops.attempted, b.ops.failed)
	var sizes []string
	for _, k := range b.sizes {
		sizes = append(sizes, fmt.Sprintf("%s=%d", k.name, k.n))
	}
	fmt.Fprintf(out, "kernels: %s; fault period %d\n", strings.Join(sizes, " "), b.faultK)
	b.printCells(out)

	var all []metricDef
	vals := map[string]float64{}
	notes := map[string]string{}
	if b.cfg.trace {
		all = b.layerMetrics(vals)
	} else {
		all = endToEnd
		for _, m := range []struct {
			k         backend
			mips, p90 string
		}{{interp, "mips_interp", "p90_ns_per_instr_interp"}, {aotPipe, "mips_aot", "p90_ns_per_instr_aot"}} {
			p := b.pairs(0, isBackend(m.k))
			sort.Float64s(p)
			vals[m.mips] = mips(p)
			if len(p) > 0 {
				vals[m.p90] = dist.Quantile(p, 9, 10)
			}
			runs := 0
			for _, c := range b.cells {
				if c.backend == m.k {
					for _, r := range c.runs[0] {
						runs += len(r)
					}
				}
			}
			note := fmt.Sprintf("(n=%d (cell, kernel) pairs, best of %d runs)", len(p), runs)
			notes[m.mips], notes[m.p90] = note, note
		}
		d := dist.Summarize(setups)
		vals["setup_s"] = d.Median
		notes["setup_s"] = fmt.Sprintf("(n=%d set-ups, q1=%.6g, q3=%.6g)", d.N, d.Q1, d.Q3)
		vals["host_rss_mb"] = float64(selfMaxRSSKB()+b.childPeakKB) / 1024
	}
	fmt.Fprintln(out, "metrics:")
	for _, m := range all {
		fmt.Fprintf(out, "  %-40s %14.6g %-13s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
	declared := endToEnd
	if b.cfg.trace {
		declared = perLayer
	}
	for _, m := range declared {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// printCells prints, per cell over the untraced rounds, the MIPS of its
// kernels' fastest and median runs (geometric means), showing the host
// noise the best-run metrics remove. A traced run adds work units per
// instruction beside ns per instruction: the deterministic work model next
// to the time it is meant to track.
func (b *bench) printCells(out io.Writer) {
	cells := append([]*cell(nil), b.cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].name < cells[j].name })
	fmt.Fprintf(out, "  %-44s %6s %10s %10s %10s %10s\n", "cell", "runs", "best MIPS", "med MIPS", "ns/instr", "work/instr")
	for _, c := range cells {
		var bests, meds []float64
		n := 0
		for _, runs := range c.runs[0] {
			if len(runs) > 0 {
				bests = append(bests, best(runs))
				meds = append(meds, dist.Summarize(runs).Median)
				n += len(runs)
			}
		}
		work := "-"
		if c.instrs > 0 {
			work = fmt.Sprintf("%.2f", float64(c.work)/float64(c.instrs))
		}
		bm := mips(bests)
		fmt.Fprintf(out, "  %-44s %6d %10.4g %10.4g %10.4g %10s\n", c.name, n, bm, mips(meds), ratio(1e3, bm), work)
	}
}

// layerAcc accumulates the per-layer totals of traced rounds.
type layerAcc struct {
	// Benchmark-driven interpreter runs.
	interpInstrs, execCalls, interpRecords, work uint64
	execBusy                                     int64
	stats                                        core.ExecStats

	aot [2]aotAcc // the pipe and plugin transports

	// consumers holds each consumer layer's busy time and the instructions
	// of the runs whose records it consumed.
	consumers map[string]*busyAcc
	cache     *obs.Registry // timing.cache.* counters of the functional-first loop's runs

	// orgs accumulates every measured run of each organization.
	orgs map[string]*orgAcc

	// allInstrs and runtime cover every measured round.
	allInstrs uint64
	runtime   runtimeSample
}

type aotAcc struct {
	instrs, records, protoBytes uint64
	runNs, runnerNs             int64
}

type busyAcc struct {
	instrs uint64
	busy   int64
}

type orgAcc struct {
	instrs, cycles, injected uint64
}

func (l *layerAcc) consumer(layer string, instrs uint64, busy int64) {
	if l.consumers == nil {
		l.consumers = map[string]*busyAcc{}
	}
	a := l.consumers[layer]
	if a == nil {
		a = &busyAcc{}
		l.consumers[layer] = a
	}
	a.instrs += instrs
	a.busy += busy
}

func (l *layerAcc) addInterp(o outcome, exec, cons fold, consumeLayer string, work uint64, st core.ExecStats) {
	l.interpInstrs += o.instrs
	l.execCalls += exec.calls
	l.execBusy += exec.busy
	l.interpRecords += o.records
	l.work += work
	l.stats.Merge(st)
	if o.records > 0 {
		l.consumer(consumeLayer, o.instrs, cons.busy)
	}
}

func (l *layerAcc) addAOT(be backend, o outcome, runNs, runnerNs, consumeNs int64, protoBytes uint64, consumeLayer string) {
	a := &l.aot[0]
	if be == aotPlugin {
		a = &l.aot[1]
	}
	a.instrs += o.instrs
	a.records += o.records
	a.protoBytes += protoBytes
	a.runNs += runNs
	a.runnerNs += runnerNs
	if be == aotPipe && o.records > 0 {
		l.consumer(consumeLayer, o.instrs, consumeNs)
	}
}

// addSink folds a finished functional-first run's cache counters in.
func (l *layerAcc) addSink(s sink) {
	if ts, ok := s.(*timingSink); ok {
		ts.hier.Record(l.cache)
	}
}

func (l *layerAcc) addOrg(name string, o outcome) {
	if l.orgs == nil {
		l.orgs = map[string]*orgAcc{}
	}
	a := l.orgs[name]
	if a == nil {
		a = &orgAcc{}
		l.orgs[name] = a
	}
	a.instrs += o.instrs
	a.cycles += o.cycles
	a.injected += o.injected
}

// statsDelta returns the translation-cache events between two readings of
// one Exec's counters, for the fields the per-layer metrics use.
func statsDelta(now, then core.ExecStats) core.ExecStats {
	return core.ExecStats{
		UnitL1Hits:        now.UnitL1Hits - then.UnitL1Hits,
		UnitSharedHits:    now.UnitSharedHits - then.UnitSharedHits,
		UnitTranslations:  now.UnitTranslations - then.UnitTranslations,
		BlockL1Hits:       now.BlockL1Hits - then.BlockL1Hits,
		BlockSharedHits:   now.BlockSharedHits - then.BlockSharedHits,
		BlockBuilds:       now.BlockBuilds - then.BlockBuilds,
		BlockChainFollows: now.BlockChainFollows - then.BlockChainFollows,
	}
}

// layerMetrics computes every per-layer metric of a traced run into vals
// and returns their definitions: the declared ones first, then the ones
// only some workloads exercise.
func (b *bench) layerMetrics(vals map[string]float64) []metricDef {
	l := &b.layers
	ms := func(layer string) float64 { return float64(b.setupNs[layer]) / float64(time.Millisecond) }
	for _, name := range []string{"lis.load", "core.synth", "aot.emit", "aot.build", "aot.spawn", "aot.init"} {
		vals[name+"_ms"] = ms(name)
	}
	ii := float64(l.interpInstrs)
	vals["core.exec_ns_per_instr"] = ratio(float64(l.execBusy), ii)
	vals["core.calls_per_instr"] = ratio(float64(l.execCalls), ii)
	vals["core.records_per_instr"] = ratio(float64(l.interpRecords), ii)
	vals["core.work_per_instr"] = ratio(float64(l.work), ii)
	var translations uint64
	for _, x := range b.execs {
		st := x.Stats()
		translations += st.UnitTranslations + st.BlockBuilds
	}
	vals["core.translations"] = float64(translations)
	pipe := l.aot[0]
	ai := float64(pipe.instrs)
	vals["aot.run_ns_per_instr"] = ratio(float64(pipe.runNs), ai)
	vals["aot.runner_ns_per_instr"] = ratio(float64(pipe.runnerNs), ai)
	vals["aot.transport_ns_per_instr"] = ratio(float64(pipe.runNs-pipe.runnerNs), ai)
	vals["aot.records_per_instr"] = ratio(float64(pipe.records), ai)
	vals["aot.proto_bytes_per_instr"] = ratio(float64(pipe.protoBytes), ai)
	vals["host.alloc_bytes_per_instr"] = ratio(l.runtime.allocBytes, float64(l.allInstrs))
	both := func(c *cell) bool { return c.backend == interp || c.backend == aotPipe }
	vals["trace.overhead_frac"] = 1 - ratio(mips(b.pairs(1, both)), mips(b.pairs(0, both)))

	defs := append([]metricDef(nil), perLayer...)
	add := func(name, unit string, v float64) {
		defs = append(defs, metricDef{name, unit})
		vals[name] = v
	}
	add("program.build_ms", "ms", ms("program.build"))
	add("host.gc_cpu_frac", "frac", ratio(l.runtime.gcCPU, l.runtime.processCPU))
	st := l.stats
	if n := st.UnitL1Hits + st.UnitSharedHits + st.UnitTranslations; n > 0 {
		add("core.unit_l1_hit_ratio", "ratio", float64(st.UnitL1Hits)/float64(n))
	}
	if n := st.BlockChainFollows + st.BlockL1Hits + st.BlockSharedHits + st.BlockBuilds; n > 0 {
		add("core.block_chain_follow_ratio", "ratio", float64(st.BlockChainFollows)/float64(n))
	}
	if p := l.aot[1]; p.instrs > 0 {
		add("aot.plugin.build_ms", "ms", ms("aot.plugin.build"))
		add("aot.plugin.run_ns_per_instr", "ns/instr", float64(p.runNs)/float64(p.instrs))
		add("aot.plugin.runner_ns_per_instr", "ns/instr", float64(p.runnerNs)/float64(p.instrs))
	}
	for _, c := range []struct{ layer, metric string }{
		{"consume", "consume.ns_per_instr"},
		{"timing.pipeline", "timing.pipeline_ns_per_instr"},
	} {
		if a := l.consumers[c.layer]; a != nil {
			add(c.metric, "ns/instr", float64(a.busy)/float64(a.instrs))
		}
	}
	if l.cache != nil {
		snap := l.cache.Snapshot().Counters
		for _, lvl := range []string{"L1I", "L1D", "L2"} {
			p := "timing.cache." + lvl + "."
			if n := snap[p+"hits"] + snap[p+"misses"]; n > 0 {
				add(p+"hit_ratio", "ratio", float64(snap[p+"hits"])/float64(n))
			}
		}
	}
	rounds := float64(b.rounds)
	for _, name := range []string{"integrated", "functional_first", "timing_directed", "timing_first", "spec_functional_first"} {
		a := l.orgs[name]
		if a == nil {
			continue
		}
		add("orgs."+name+".mips", "MIPS", mips(b.pairs(0, func(c *cell) bool { return c.org == name })))
		add("orgs."+name+".ipc", "IPC", ratio(float64(a.instrs), float64(a.cycles)))
		switch name {
		case "timing_first":
			add("orgs.timing_first.mismatches", "count/round", float64(a.injected)/rounds)
		case "spec_functional_first":
			add("orgs.spec_functional_first.rollbacks", "count/round", float64(a.injected)/rounds)
		}
	}
	return defs
}

// runtimeSample is a reading of the process's allocation and CPU counters.
type runtimeSample struct {
	allocBytes, gcCPU, processCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.processCPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return r
}

func (r runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{r.allocBytes - o.allocBytes, r.gcCPU - o.gcCPU, r.processCPU - o.processCPU}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfMaxRSSKB is this process's peak resident set size.
func selfMaxRSSKB() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Maxrss
}

// childPeakKB returns the largest peak RSS (VmHWM) among this process's
// live children — the runner process, when called before it is closed.
// getrusage's RUSAGE_CHILDREN would also count the toolchain processes
// aot.Build waits for, which dwarf a runner.
func childPeakKB() int64 {
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	var peak int64
	for _, f := range tasks {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, pid := range strings.Fields(string(data)) {
			status, err := os.ReadFile("/proc/" + pid + "/status")
			if err != nil {
				continue
			}
			for _, line := range strings.Split(string(status), "\n") {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					if f := strings.Fields(v); len(f) > 0 {
						if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
							peak = max(peak, kb)
						}
					}
				}
			}
		}
	}
	return peak
}
