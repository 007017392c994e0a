// Package expt is the experiment harness that regenerates the paper's
// evaluation artifacts: Table I (description characteristics), Table II
// (simulation speed per interface), Table III (costs of detail), and the
// footnote-5 interpreted-vs-translated ablation. It is shared by the
// ssbench tool and the repository's top-level benchmarks.
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

// RunOnce executes one assembled program to completion on a fresh machine
// and returns retired instructions and accumulated work units.
func RunOnce(sim *core.Sim, i *isa.ISA, prog *asm.Program) (instrs, work uint64, err error) {
	r := NewRunner(sim, i, prog)
	return r.Run()
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
	runs  int
	prevW uint64
	// checks counts cooperative watchdog checks (one per execution chunk
	// RunLimited dispatched); deterministic for a fixed instruction stream.
	checks uint64
	// resumed marks the runner as primed with a mid-run checkpoint (see
	// restoreFrom): the next RunLimited call continues that run instead of
	// resetting, and resumeWork is the work the run had already accumulated
	// before the restore point.
	resumed    bool
	resumeWork uint64
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

// Run executes the program once, returning retired instructions and the
// work units accumulated by this run. It is RunLimited without bounds.
func (r *Runner) Run() (instrs, work uint64, err error) {
	return r.RunLimited(Limits{})
}

// Cell is one measured (ISA, interface) speed.
type Cell struct {
	ISA      string
	Buildset string
	// Backend names the execution engine that measured the cell: "" for
	// the in-process interpreter, "aot" for the generated runner binary.
	Backend string
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
	// Restored marks a cell reloaded from a resume journal rather than
	// computed by this process.
	Restored bool
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
	return measureCell(p, buildset, opts, minDur, Limits{}, false, nil)
}

// cellProgress is the durable-within-process state of one cell
// measurement, owned by runCellGuarded and threaded through every attempt.
// measureCell commits into it at run and kernel boundaries, so when an
// attempt dies mid-cell the retry skips the finished kernels, replays the
// committed per-kernel accumulators, and — when an in-cell checkpoint was
// captured — resumes the in-flight run from that checkpoint instead of
// from zero.
type cellProgress struct {
	// kernelsDone counts fully completed kernels (their geomean inputs and
	// stats are committed below).
	kernelsDone int
	// used is the cell-wide instruction total (budget accounting).
	used uint64
	// instret/workUnits are the cell's raw totals, committed at run ends.
	instret, workUnits uint64
	// mips/ns/work are the per-kernel geomean inputs, committed at kernel
	// ends.
	mips, ns, work []float64
	// stats holds the committed kernels' counters.
	stats CellStats
	// Current-kernel state: whether its warmup completed, and the measured
	// runs committed so far.
	warmupDone bool
	curInstrs  uint64
	curWork    uint64
	curElapsed time.Duration
	// ckpt is the last in-cell checkpoint of the in-flight run, in the
	// serialized binary format (so restoring it exercises the same
	// validation path as an on-disk checkpoint); ckptKernel is the kernel
	// it belongs to (-1 when none).
	ckpt       []byte
	ckptKernel int
}

// measureCell is MeasureCell bounded by lim: the instruction budget is
// cumulative over the cell's kernels and repeat runs, and the deadline both
// cuts off further repeat runs (gracefully, keeping the measurements made)
// and interrupts a run that overstays it (as an error).
//
// det selects the deterministic schedule the work metric reports under:
// one warmup run plus exactly one measured run per kernel, regardless of
// wall clock. Every engine counter then depends only on the instruction
// stream, which is what makes -metrics-out byte-identical across -parallel
// values and hosts (the wall-clock repeat loop would tie run counts — and
// so counter totals — to host speed).
//
// cp, when non-nil, carries committed progress from a previous attempt of
// the same cell and receives this attempt's progress; nil measures from
// scratch with no checkpointing.
func measureCell(p *Programs, buildset string, opts core.Options, minDur time.Duration, lim Limits, det bool, cp *cellProgress) (Cell, error) {
	sim, err := core.Synthesize(p.ISA.Spec, buildset, opts)
	if err != nil {
		return Cell{}, err
	}
	if cp == nil {
		cp = &cellProgress{ckptKernel: -1}
		lim.ckptEvery = 0
	}
	cell := Cell{ISA: p.ISA.Name, Buildset: buildset}
	runOnce := func(runner *Runner) (uint64, uint64, error) {
		rl := lim
		if lim.MaxInstr > 0 {
			if cp.used >= lim.MaxInstr {
				return 0, 0, fmt.Errorf("expt: %s/%s: %w after %d instructions",
					p.ISA.Name, buildset, errBudget, cp.used)
			}
			rl.MaxInstr = lim.MaxInstr - cp.used
		}
		in, wk, err := runner.RunLimited(rl)
		cp.used += in
		cp.instret += in
		cp.workUnits += wk
		if err == nil {
			// A completed run supersedes any mid-run checkpoint. On error
			// the checkpoint stays: it is the retry's resume point.
			cp.ckpt, cp.ckptKernel = nil, -1
		}
		return in, wk, err
	}
	for idx, prog := range p.Progs {
		if idx < cp.kernelsDone {
			continue // committed by a previous attempt
		}
		runner := NewRunner(sim, p.ISA, prog)
		if lim.ckptEvery > 0 {
			idx := idx
			lim.ckptSink = func(rc *runCheckpoint) {
				if b, err := rc.encode(); err == nil {
					cp.ckpt, cp.ckptKernel = b, idx
				}
			}
		}
		if cp.ckpt != nil && cp.ckptKernel == idx {
			// A previous attempt died mid-run in this kernel: resume its
			// in-flight run from the last checkpoint. The restore validates
			// the serialized bytes in full; damage means we fall back to
			// running this kernel's remaining runs from scratch.
			if rc, err := decodeRunCheckpoint(cp.ckpt); err == nil {
				if err := runner.restoreFrom(rc); err != nil {
					runner = NewRunner(sim, p.ISA, prog)
				}
			}
			cp.ckpt, cp.ckptKernel = nil, -1
		}
		// Warmup (also validates, and fills the translation caches). A
		// runner resumed mid-warmup finishes that warmup here; one resumed
		// mid-measured-run has warmupDone set and skips straight down.
		if !cp.warmupDone {
			if _, _, err := runOnce(runner); err != nil {
				return Cell{}, fmt.Errorf("%s: %w", p.Names[idx], err)
			}
			cp.warmupDone = true
		}
		for {
			start := time.Now()
			in, wk, err := runOnce(runner)
			if err != nil {
				return Cell{}, fmt.Errorf("%s: %w", p.Names[idx], err)
			}
			cp.curElapsed += time.Since(start)
			cp.curInstrs += in
			cp.curWork += wk
			if det {
				break // fixed schedule: counters stay host-independent
			}
			if cp.curElapsed >= minDur {
				break
			}
			if !lim.Deadline.IsZero() && !time.Now().Before(lim.Deadline) {
				break // keep what we measured; the watchdog is about hangs
			}
		}
		cp.stats.merge(runner)
		elapsed := cp.curElapsed
		if elapsed <= 0 {
			// Timer granularity floor: keeps the geomean inputs positive.
			elapsed = time.Nanosecond
		}
		ns := float64(elapsed.Nanoseconds()) / float64(cp.curInstrs)
		cp.mips = append(cp.mips, 1e3/ns)
		cp.ns = append(cp.ns, ns)
		cp.work = append(cp.work, float64(cp.curWork)/float64(cp.curInstrs))
		// Kernel boundary: commit and clear the current-kernel state.
		cp.kernelsDone = idx + 1
		cp.warmupDone = false
		cp.curInstrs, cp.curWork, cp.curElapsed = 0, 0, 0
	}
	cell.Instret, cell.WorkUnits = cp.instret, cp.workUnits
	cell.Stats = cp.stats
	cell.Stats.Shared = sim.SharedCacheStats()
	cell.MIPS = stats.GeoMean(cp.mips)
	cell.NsPerInstr = stats.GeoMean(cp.ns)
	cell.WorkPerInstr = stats.GeoMean(cp.work)
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
// deterministic work units.
func TableIII(cells []Cell) *stats.Table {
	t := stats.NewTable(append([]string{"Cost (ns/instr | work/instr)"}, isa.Names()...)...)
	row := func(label string, f func(isaName string) (float64, float64)) {
		cellsOut := []any{label}
		for _, name := range isa.Names() {
			ns, work := f(name)
			cellsOut = append(cellsOut, fmt.Sprintf("%s | %s", stats.FormatSig(ns, 3), stats.FormatSig(work, 3)))
		}
		t.Row(cellsOut...)
	}
	base := func(n string) Cell { return find(cells, n, "one_min") }
	row("Base cost (One/Min/No)", func(n string) (float64, float64) {
		c := base(n)
		return c.NsPerInstr, c.WorkPerInstr
	})
	row("Incremental: decode information", func(n string) (float64, float64) {
		c := find(cells, n, "one_decode")
		return c.NsPerInstr - base(n).NsPerInstr, c.WorkPerInstr - base(n).WorkPerInstr
	})
	row("Incremental: full information", func(n string) (float64, float64) {
		c := find(cells, n, "one_all")
		return c.NsPerInstr - base(n).NsPerInstr, c.WorkPerInstr - base(n).WorkPerInstr
	})
	row("Incremental: block-call", func(n string) (float64, float64) {
		c := find(cells, n, "block_min")
		return c.NsPerInstr - base(n).NsPerInstr, c.WorkPerInstr - base(n).WorkPerInstr
	})
	row("Incremental: multiple calls (Step)", func(n string) (float64, float64) {
		c := find(cells, n, "step_all")
		a := find(cells, n, "one_all")
		return c.NsPerInstr - a.NsPerInstr, c.WorkPerInstr - a.WorkPerInstr
	})
	row("Incremental: speculation", func(n string) (float64, float64) {
		c := find(cells, n, "one_all_spec")
		a := find(cells, n, "one_all")
		return c.NsPerInstr - a.NsPerInstr, c.WorkPerInstr - a.WorkPerInstr
	})
	return t
}

// Headline computes the paper's headline ratio: fastest (Block/Min) over
// slowest (Step/All/Yes) interface, per ISA, in the given metric. Under
// MetricWork the ratio is slow/fast work units (higher work = slower), so
// both metrics report "how much faster is the lowest-detail interface".
func Headline(cells []Cell, metric Metric) *stats.Table {
	unit := "MIPS"
	if metric == MetricWork {
		unit = "work/instr"
	}
	t := stats.NewTable("ISA", "Block/Min ("+unit+")", "Step/All/Yes ("+unit+")", "Speedup")
	for _, name := range isa.Names() {
		fast := find(cells, name, "block_min")
		slow := find(cells, name, "step_all_spec")
		fv, sv := metric.value(fast), metric.value(slow)
		ratio := 0.0
		switch {
		case metric == MetricWork && fv > 0:
			ratio = sv / fv
		case metric == MetricMIPS && sv > 0:
			ratio = fv / sv
		}
		t.Row(name, fv, sv, fmt.Sprintf("%.1fx", ratio))
	}
	return t
}
