// Package expt is the experiment harness that regenerates the paper's
// evaluation artifacts: Table I (description characteristics), Table II
// (simulation speed per interface), Table III (costs of detail), and the
// footnote-5 interpreted-vs-translated ablation, as the ssbench tool
// prints them. Every cell is measured on the closure interpreter; the AOT
// runner backend is timed end to end by the benchmark module in bench/.
package expt

import (
	"fmt"
	"time"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/kernels"
	"singlespec/internal/mach"
	"singlespec/internal/stats"
	"singlespec/internal/sysemu"
)

// MixEntry is one workload of the Table II benchmark mix.
type MixEntry struct {
	Kernel string
	N      int
}

// Mix returns the six-kernel benchmark mix (mirroring the paper's six
// SPECint benchmarks). scale multiplies problem sizes: 1 for tests, larger
// for real measurement runs.
func Mix(scale int) []MixEntry {
	if scale < 1 {
		scale = 1
	}
	return []MixEntry{
		{"sieve", 2000 * scale},
		{"fib_iter", 20000 * scale},
		{"crc32", 1024 * scale},
		{"listchase", 4096 * scale}, // must stay a power of two
		{"bubblesort", 96 * scale},
		{"hashmix", 10000 * scale},
	}
}

// Programs holds the assembled mix for one ISA.
type Programs struct {
	ISA   *isa.ISA
	Progs []*asm.Program
	Names []string
}

// BuildMix assembles the benchmark mix for one ISA.
func BuildMix(i *isa.ISA, scale int) (*Programs, error) {
	out := &Programs{ISA: i}
	for _, me := range Mix(scale) {
		k := kernels.ByName(me.Kernel)
		if k == nil {
			return nil, fmt.Errorf("expt: unknown kernel %q", me.Kernel)
		}
		n := me.N
		if me.Kernel == "listchase" {
			// Round to a power of two.
			p := 1
			for p < n {
				p <<= 1
			}
			n = p
		}
		prog, err := kernels.BuildProgram(i, k.Build(n))
		if err != nil {
			return nil, fmt.Errorf("expt: %s: %w", me.Kernel, err)
		}
		out.Progs = append(out.Progs, prog)
		out.Names = append(out.Names, me.Kernel)
	}
	return out, nil
}

// Runner repeatedly executes one program on one synthesized simulator,
// resetting architectural state between runs while keeping the translation
// caches warm (so translation amortizes, as in the paper's 4-billion-
// instruction measurement runs).
type Runner struct {
	sim   *core.Sim
	i     *isa.ISA
	prog  *asm.Program
	m     *mach.Machine
	emu   *sysemu.Emulator
	x     *core.Exec
	ran   bool
	prevW uint64
	// checks counts cooperative watchdog checks (one per execution chunk
	// RunLimited dispatched); deterministic for a fixed instruction stream.
	checks uint64
}

// NewRunner binds a simulator, ISA, and program.
func NewRunner(sim *core.Sim, i *isa.ISA, prog *asm.Program) *Runner {
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	prog.LoadInto(m)
	return &Runner{sim: sim, i: i, prog: prog, m: m, emu: emu, x: sim.NewExec(m)}
}

func (r *Runner) reset() {
	for _, sp := range r.m.Spaces {
		for k := range sp.Vals {
			sp.Vals[k] = 0
		}
	}
	r.m.Halted = false
	r.m.ExitCode = 0
	r.m.Instret = 0
	r.m.Journal.Reset()
	r.emu.Stdout.Reset()
	r.emu.Install(r.m)
	r.prog.ReloadData(r.m)
}

// Cell is one measured (ISA, interface) speed.
type Cell struct {
	ISA      string
	Buildset string
	// MIPS is the geometric mean over the mix of simulated instructions
	// per microsecond of host time (the paper's Table II metric).
	MIPS float64
	// NsPerInstr is the geometric-mean host time per simulated instruction
	// (our Table III unit — a stand-in for host instructions; DESIGN.md §2).
	NsPerInstr float64
	// WorkPerInstr is the deterministic engine work-unit count per
	// instruction (hardware-independent cross-check of the same trends).
	WorkPerInstr float64
	// Err is set when the cell's measurement failed under the guarded
	// engine (see CellError); the metric fields are then zero.
	Err *CellError

	// Instret and WorkUnits are the cell's raw totals over every run,
	// warmup included — the quantities the obs layer exports. Under
	// MetricWork's fixed run schedule they are deterministic.
	Instret   uint64
	WorkUnits uint64
	// Attempts counts guarded measurement attempts (1 normally, 2 when the
	// watchdog granted a retry).
	Attempts int
	// Wall is the cell's total wall-clock measurement time across
	// attempts; QueueWait is how long the job sat in the sweep queue
	// before a worker picked it up. Both are host observations, excluded
	// from the determinism contract.
	Wall      time.Duration
	QueueWait time.Duration
	// Stats aggregates the cell's engine counters; deterministic under
	// MetricWork.
	Stats CellStats
}

// CellStats aggregates one cell's engine counters across its kernels and
// runs: translation-cache traffic, shared-cache mutations, cooperative
// watchdog checks, and OS-emulation activity.
type CellStats struct {
	Cache  core.ExecStats
	Shared core.SharedCacheStats
	// WatchdogChecks counts the cooperative limit checks RunLimited makes
	// at execution-chunk boundaries (the watchdog granularity).
	WatchdogChecks uint64
	// Syscalls counts emulated system calls by number; Denials and Shorts
	// mirror the emulator's failure counters.
	Syscalls       map[int]uint64
	SyscallDenials uint64
	SyscallShorts  uint64
}

// merge folds one runner's drained counters into the cell totals.
func (s *CellStats) merge(r *Runner) {
	s.Cache.Merge(r.x.Stats())
	s.WatchdogChecks += r.checks
	if len(r.emu.Calls) > 0 && s.Syscalls == nil {
		s.Syscalls = map[int]uint64{}
	}
	for num, n := range r.emu.Calls {
		s.Syscalls[num] += n
	}
	s.SyscallDenials += r.emu.Denials
	s.SyscallShorts += r.emu.Shorts
}

// MeasureCell times one (ISA, interface) pair over the mix. Each kernel
// runs repeatedly until minDur has elapsed (one warmup run first).
func MeasureCell(p *Programs, buildset string, opts core.Options, minDur time.Duration) (Cell, error) {
	return measureCell(p, buildset, opts, minDur, Limits{}, false)
}

// measureCell is MeasureCell bounded by lim: the deadline both cuts off
// further repeat runs (gracefully, keeping the measurements made) and
// interrupts a run that overstays it (as an error). Each kernel gets a
// warmup run (which validates the program and warms the caches), then
// measured runs until minDur has elapsed or the deadline passes.
//
// det selects the deterministic schedule the work metric reports under:
// one warmup run plus exactly one measured run per kernel, regardless of
// wall clock. Every engine counter then depends only on the instruction
// stream, which is what makes -metrics-out byte-identical across -parallel
// values and hosts (the wall-clock repeat loop would tie run counts — and
// so counter totals — to host speed).
func measureCell(p *Programs, buildset string, opts core.Options, minDur time.Duration, lim Limits, det bool) (Cell, error) {
	sim, err := core.Synthesize(p.ISA.Spec, buildset, opts)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{ISA: p.ISA.Name, Buildset: buildset}
	var mips, nsPer, workPer []float64
	for idx, prog := range p.Progs {
		runner := NewRunner(sim, p.ISA, prog)
		var instrs, work uint64
		var elapsed time.Duration
		for run := 0; ; run++ {
			start := time.Now()
			in, wk, err := runner.RunLimited(lim)
			if err != nil {
				return Cell{}, fmt.Errorf("%s: %w", p.Names[idx], err)
			}
			el := time.Since(start)
			cell.Instret += in
			cell.WorkUnits += wk
			if run == 0 {
				continue // warmup
			}
			instrs += in
			work += wk
			elapsed += el
			if det || elapsed >= minDur {
				break // det: a fixed schedule keeps the counters host-independent
			}
			if !lim.Deadline.IsZero() && !time.Now().Before(lim.Deadline) {
				break // keep what we measured; the watchdog is about hangs
			}
		}
		if elapsed <= 0 {
			// Timer granularity floor: keeps the geomean inputs positive.
			elapsed = time.Nanosecond
		}
		ns := float64(elapsed.Nanoseconds()) / float64(instrs)
		mips = append(mips, 1e3/ns)
		nsPer = append(nsPer, ns)
		workPer = append(workPer, float64(work)/float64(instrs))
		cell.Stats.merge(runner)
	}
	cell.Stats.Shared = sim.SharedCacheStats()
	cell.MIPS = stats.GeoMean(mips)
	cell.NsPerInstr = stats.GeoMean(nsPer)
	cell.WorkPerInstr = stats.GeoMean(workPer)
	return cell, nil
}

// cellGeoMean returns the geometric mean of the metric over the ok cells
// of one ISA. Error cells are skipped explicitly: their metric fields are
// zero, and stats.GeoMean's contract requires positive inputs — feeding an
// ERR cell through would have zeroed (now: panicked) the whole summary.
func cellGeoMean(cells []Cell, isaName string, m Metric) float64 {
	var vals []float64
	for _, c := range cells {
		if c.ISA != isaName || c.Err != nil {
			continue
		}
		if v := m.value(c); v > 0 {
			vals = append(vals, v)
		}
	}
	return stats.GeoMean(vals)
}

// rowLabel renders a buildset name in the paper's Table II row style.
func rowLabel(bs string) (semantic, info, spec string) {
	semantic, info, spec = "One", "All", "No"
	switch {
	case len(bs) > 5 && bs[:5] == "block":
		semantic = "Block"
	case len(bs) > 4 && bs[:4] == "step":
		semantic = "Step"
	}
	switch {
	case contains(bs, "_min"):
		info = "Min"
	case contains(bs, "_decode"):
		info = "Decode"
	}
	if contains(bs, "_spec") {
		spec = "Yes"
	}
	return
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TableI renders the instruction-set description characteristics.
func TableI() (*stats.Table, error) {
	t := stats.NewTable(append([]string{"Characteristic"}, isa.Names()...)...)
	var loaded []*isa.ISA
	for _, name := range isa.Names() {
		i, err := isa.Load(name)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, i)
	}
	row := func(label string, f func(*isa.ISA) any) {
		cells := []any{label}
		for _, i := range loaded {
			cells = append(cells, f(i))
		}
		t.Row(cells...)
	}
	row("ISA description (lines of LIS)", func(i *isa.ISA) any { return i.DescLines })
	row("Buildset descriptions (lines)", func(i *isa.ISA) any { return i.BuildsetLines })
	row("Lines per experimental buildset", func(i *isa.ISA) any {
		total, n := 0, 0
		for _, bs := range i.Spec.Buildsets {
			total += bs.SrcLines
			n++
		}
		return fmt.Sprintf("%.1f", float64(total)/float64(n))
	})
	row("Number of instructions", func(i *isa.ISA) any { return len(i.Spec.Instrs) })
	row("Buildsets (interfaces)", func(i *isa.ISA) any { return len(i.Spec.Buildsets) })
	return t, nil
}

// find returns the cell for (isa, buildset).
func find(cells []Cell, isaName, bs string) Cell {
	for _, c := range cells {
		if c.ISA == isaName && c.Buildset == bs {
			return c
		}
	}
	return Cell{}
}

// TableIII derives the costs of detail from Table II measurements:
// base = One/Min/No; increments are differences, in host-ns per simulated
// instruction (stand-in for the paper's host instructions) and in
// deterministic work units. An entry with a failed input cell shows that
// cell's error marker instead of a difference against zeroed metrics.
func TableIII(cells []Cell) *stats.Table {
	t := stats.NewTable(append([]string{"Cost (ns/instr | work/instr)"}, isa.Names()...)...)
	// Each row is the cost of cell bs, less that of cell ref when set.
	for _, r := range []struct{ label, bs, ref string }{
		{"Base cost (One/Min/No)", "one_min", ""},
		{"Incremental: decode information", "one_decode", "one_min"},
		{"Incremental: full information", "one_all", "one_min"},
		{"Incremental: block-call", "block_min", "one_min"},
		{"Incremental: multiple calls (Step)", "step_all", "one_all"},
		{"Incremental: speculation", "one_all_spec", "one_all"},
	} {
		row := []any{r.label}
		for _, name := range isa.Names() {
			row = append(row, costEntry(cells, name, r.bs, r.ref))
		}
		t.Row(row...)
	}
	return t
}

// costEntry renders one Table III entry: cell bs's ns and work per
// instruction, less ref's when ref is set.
func costEntry(cells []Cell, isaName, bs, ref string) string {
	c := find(cells, isaName, bs)
	if c.Err != nil {
		return errMark(c.Err)
	}
	ns, work := c.NsPerInstr, c.WorkPerInstr
	if ref != "" {
		b := find(cells, isaName, ref)
		if b.Err != nil {
			return errMark(b.Err)
		}
		ns -= b.NsPerInstr
		work -= b.WorkPerInstr
	}
	return stats.FormatSig(ns, 3) + " | " + stats.FormatSig(work, 3)
}

// Headline computes the paper's headline ratio: fastest (Block/Min) over
// slowest (Step/All/Yes) interface, per ISA, in the given metric. Under
// MetricWork the ratio is slow/fast work units (higher work = slower), so
// both metrics report "how much faster is the lowest-detail interface".
// A failed cell shows its error marker, and so does the ratio it feeds.
func Headline(cells []Cell, metric Metric) *stats.Table {
	unit := "MIPS"
	if metric == MetricWork {
		unit = "work/instr"
	}
	t := stats.NewTable("ISA", "Block/Min ("+unit+")", "Step/All/Yes ("+unit+")", "Speedup")
	for _, name := range isa.Names() {
		fast := find(cells, name, "block_min")
		slow := find(cells, name, "step_all_spec")
		var speedup string
		switch {
		case fast.Err != nil:
			speedup = errMark(fast.Err)
		case slow.Err != nil:
			speedup = errMark(slow.Err)
		default:
			fv, sv := metric.value(fast), metric.value(slow)
			ratio := 0.0
			switch {
			case metric == MetricWork && fv > 0:
				ratio = sv / fv
			case metric == MetricMIPS && sv > 0:
				ratio = fv / sv
			}
			speedup = fmt.Sprintf("%.1fx", ratio)
		}
		t.Row(name, metric.entry(fast), metric.entry(slow), speedup)
	}
	return t
}
