package expt

// The parallel experiment engine: the paper's evaluation sweeps
// {ISA × interface} cells over a kernel mix, and every cell is independent
// of every other, so the sweep fans out across a worker pool. What the
// workers share — loaded ISAs, resolved lis.Specs, assembled Programs — is
// read-only by construction; every mutable machine (Machine, Memory,
// Emulator, Exec) is created on the worker that uses it, per the
// concurrency contract documented in internal/mach. Results are collected
// by job index, never by completion order, so the rendered tables are
// identical for any worker count.

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/obs"
	"singlespec/internal/stats"
	"singlespec/internal/sysemu"
)

// Metric selects which per-cell number the rendered tables report.
type Metric int

const (
	// MetricMIPS reports wall-clock simulation speed (the paper's Table II
	// metric). It varies run to run with host conditions.
	MetricMIPS Metric = iota
	// MetricWork reports deterministic engine work units per instruction:
	// the hardware-independent cross-check of the same trends, whose
	// tables are byte-identical regardless of worker count or host load.
	MetricWork
)

// ParseMetric parses a -metric flag value.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "mips":
		return MetricMIPS, nil
	case "work":
		return MetricWork, nil
	}
	return 0, fmt.Errorf("expt: unknown metric %q (want mips or work)", s)
}

func (m Metric) String() string {
	if m == MetricWork {
		return "work"
	}
	return "mips"
}

// value returns the cell number this metric reports.
func (m Metric) value(c Cell) float64 {
	if m == MetricWork {
		return c.WorkPerInstr
	}
	return c.MIPS
}

// entry is what a table shows for c under this metric: its value, or the
// error marker of a failed cell.
func (m Metric) entry(c Cell) any {
	if c.Err != nil {
		return errMark(c.Err)
	}
	return m.value(c)
}

// Config configures an experiment-engine run.
type Config struct {
	// Scale multiplies kernel problem sizes (see Mix).
	Scale int
	// MinDur is the minimum measurement time per (cell, kernel).
	MinDur time.Duration
	// Workers is the worker-pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Metric selects the table values (wall-clock MIPS or deterministic
	// work units).
	Metric Metric
	// CellTimeout is the wall-clock watchdog per cell attempt: a cell still
	// running past it is marked errored (after one retry) instead of
	// stalling the sweep. <= 0 disables the watchdog. The watchdog is
	// cooperative (see RunLimited), so it catches runaway simulated
	// programs, not arbitrary host-code hangs.
	CellTimeout time.Duration
	// Interrupt, when non-nil, winds the sweep down once the channel is
	// closed: running cells stop at the next watchdog check and unstarted
	// cells are marked interrupted without running.
	Interrupt <-chan struct{}
	// Backend selects the execution engine measuring TableII cells: the
	// in-process interpreter (default), the generated AOT runner binary, or
	// both (each cell measured twice; see VerifyBackendParity).
	Backend Backend
	// AOTCacheDir is where AOT runner binaries are compiled and cached;
	// empty means a temporary cache that the sweep removes before it
	// returns.
	AOTCacheDir string
	// Obs, when non-nil, receives the sweep's aggregate counters and
	// histograms: translation-cache traffic, syscall activity, watchdog
	// checks, and per-cell outcomes. Aggregation is commutative atomic
	// addition over per-cell deltas, so the totals are identical for any
	// Workers value; under MetricWork the deltas themselves are
	// deterministic, making the exported snapshot byte-identical across
	// worker counts and hosts. Nil disables instrumentation at zero cost.
	Obs *obs.Registry
	// testHook, when non-nil, runs at the start of every cell attempt.
	// Tests inject panics and hangs through it to exercise containment.
	testHook func(isaName, buildset string, attempt int)
	// testChunkHook, when non-nil, runs at every RunLimited chunk boundary.
	// Tests inject mid-run interrupts through it.
	testChunkHook func(r *Runner)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// backends lists the backends a TableII sweep measures, in table order.
func (c Config) backends() []Backend {
	switch c.Backend {
	case BackendAOT:
		return []Backend{BackendAOT}
	case BackendBoth:
		return []Backend{BackendInterp, BackendAOT}
	}
	return []Backend{BackendInterp}
}

// cellJob is one {ISA × buildset × options × backend} measurement to
// schedule.
type cellJob struct {
	progs    *Programs
	buildset string
	opts     core.Options
	// backend is BackendInterp or BackendAOT per job; BackendBoth fans out
	// into one job of each before scheduling.
	backend Backend
}

// interrupted reports whether ch (which may be nil) has been closed.
func interrupted(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// runCells fans jobs out across a worker pool and collects results by job
// index, so the rendered tables are identical for any worker count. Every
// cell runs guarded: a panicking, hung, or failing cell is returned with
// its Err set while all other cells' results stay intact — the sweep never
// aborts partway. AOT jobs with no cfg.AOTCacheDir build their runners in
// a temporary cache, removed before runCells returns.
func runCells(jobs []cellJob, cfg Config, minDur time.Duration) ([]Cell, error) {
	if cfg.AOTCacheDir == "" && slices.ContainsFunc(jobs, func(j cellJob) bool { return j.backend == BackendAOT }) {
		dir, err := os.MkdirTemp("", "ssbench-aot-")
		if err != nil {
			return nil, fmt.Errorf("expt: creating the AOT runner cache: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.AOTCacheDir = dir
	}
	workers := cfg.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]Cell, len(jobs))
	// Buffered so every job is queued up front: a worker's pickup delay is
	// then real queue wait, which the manifest reports per cell.
	start := time.Now()
	idxCh := make(chan int, len(jobs))
	for i := range jobs {
		idxCh <- i
	}
	close(idxCh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				j := jobs[idx]
				// Shutdown: unstarted cells are marked, not run.
				if interrupted(cfg.Interrupt) {
					results[idx] = Cell{ISA: j.progs.ISA.Name, Buildset: j.buildset,
						Backend: j.backend.cellTag(),
						Err: &CellError{ISA: j.progs.ISA.Name, Buildset: j.buildset,
							Kind: CellInterrupted, Err: errInterrupted}}
					continue
				}
				wait := time.Since(start)
				c := runCellGuarded(j, cfg, minDur)
				c.QueueWait = wait
				results[idx] = c
			}
		}()
	}
	wg.Wait()
	recordCells(cfg.Obs, results)
	return results, nil
}

// workPerInstrBuckets bounds the per-cell work-units-per-instruction
// histogram: interfaces in this engine land between a few units (Block/Min)
// and a few hundred (Step/All/Yes).
var workPerInstrBuckets = []uint64{4, 8, 16, 32, 64, 128, 256, 512}

// recordCells merges every cell's deterministic counters into reg. Called
// once per sweep, after the worker pool has quiesced, so a snapshot taken
// after the sweep is exact.
func recordCells(reg *obs.Registry, cells []Cell) {
	if reg == nil {
		return
	}
	add := func(name string, v uint64) { reg.Counter(name).Add(v) }
	for _, c := range cells {
		if c.Err != nil {
			reg.Counter("expt.cell.err." + c.Err.Kind.String()).Inc()
		} else {
			reg.Counter("expt.cell.ok").Inc()
		}
		if c.Attempts > 1 {
			add("expt.cell.retries", uint64(c.Attempts-1))
		}
		add("expt.instret", c.Instret)
		add("expt.work_units", c.WorkUnits)
		add("expt.watchdog.checks", c.Stats.WatchdogChecks)
		if c.Err == nil && c.Instret > 0 {
			reg.Histogram("expt.cell.work_per_instr", workPerInstrBuckets).
				Observe(c.WorkUnits / c.Instret)
		}
		cs := c.Stats.Cache
		add("core.transcache.unit.l1_hit", cs.UnitL1Hits)
		add("core.transcache.unit.l1_gen_evict", cs.UnitL1GenEvictions)
		add("core.transcache.unit.l1_conflict", cs.UnitL1Conflicts)
		add("core.transcache.unit.shared_hit", cs.UnitSharedHits)
		add("core.transcache.unit.translations", cs.UnitTranslations)
		add("core.transcache.block.l1_hit", cs.BlockL1Hits)
		add("core.transcache.block.l1_gen_evict", cs.BlockL1GenEvictions)
		add("core.transcache.block.l1_conflict", cs.BlockL1Conflicts)
		add("core.transcache.block.shared_hit", cs.BlockSharedHits)
		add("core.transcache.block.shared_stale", cs.BlockSharedStale)
		add("core.transcache.block.builds", cs.BlockBuilds)
		add("core.transcache.block.chain_link", cs.BlockChainLinks)
		add("core.transcache.block.chain_follow", cs.BlockChainFollows)
		sh := c.Stats.Shared
		add("core.transcache.unit.shared_insert", sh.UnitInsertions)
		add("core.transcache.unit.shared_shard_flush", sh.UnitShardFlushes)
		add("core.transcache.block.shared_insert", sh.BlockInsertions)
		add("core.transcache.block.shared_shard_flush", sh.BlockShardFlushes)
		for num, n := range c.Stats.Syscalls {
			add("sysemu.calls."+sysemu.CallName(num), n)
		}
		add("sysemu.denials", c.Stats.SyscallDenials)
		add("sysemu.short_io", c.Stats.SyscallShorts)
	}
}

// Outcomes converts sweep cells into manifest cell outcomes.
func Outcomes(cells []Cell) []obs.CellOutcome {
	out := make([]obs.CellOutcome, 0, len(cells))
	for _, c := range cells {
		status := "ok"
		if c.Err != nil {
			status = c.Err.Kind.String()
		}
		out = append(out, obs.CellOutcome{
			ISA:         c.ISA,
			Buildset:    c.Buildset,
			Status:      status,
			Attempts:    c.Attempts,
			Instret:     c.Instret,
			WorkUnits:   c.WorkUnits,
			WallMS:      float64(c.Wall.Microseconds()) / 1e3,
			QueueWaitMS: float64(c.QueueWait.Microseconds()) / 1e3,
		})
	}
	return out
}

// buildAllMixes loads every ISA and assembles its kernel mix, one goroutine
// per ISA. The results are shared read-only by all measurement workers.
func buildAllMixes(scale int) ([]*Programs, error) {
	names := isa.Names()
	out := make([]*Programs, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for k, name := range names {
		wg.Add(1)
		go func(k int, name string) {
			defer wg.Done()
			i, err := isa.Load(name)
			if err != nil {
				errs[k] = err
				return
			}
			out[k], errs[k] = BuildMix(i, scale)
		}(k, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TableII measures all twelve interfaces on all three ISAs across cfg's
// worker pool. The returned cells are ordered ISA-major, buildset-minor
// (Table II order) regardless of worker count. Failed cells render as
// "ERR:<kind>" markers in the table (the degraded-rendering contract: the
// table is always complete); inspect them via CellErrors.
func TableII(cfg Config) ([]Cell, *stats.Table, error) {
	mixes, err := buildAllMixes(cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	cells, err := runCells(tableIIJobs(cfg, mixes), cfg, cfg.MinDur)
	if err != nil {
		return nil, nil, err
	}
	return cells, renderTableII(cfg, cells), nil
}

// tableIIJobs lists the Table II sweep's cells over mixes (one per ISA, in
// isa.Names() order) in the order TableII schedules them: backend-major,
// ISA-major, buildset-minor.
func tableIIJobs(cfg Config, mixes []*Programs) []cellJob {
	var jobs []cellJob
	for _, be := range cfg.backends() {
		for _, p := range mixes {
			for _, bs := range isa.StdBuildsets {
				jobs = append(jobs, cellJob{progs: p, buildset: bs, backend: be})
			}
		}
	}
	return jobs
}

// renderTableII renders the Table II grid from measured cells under cfg's
// metric and backend selection.
func renderTableII(cfg Config, cells []Cell) *stats.Table {
	byBS := map[string]map[string]Cell{}
	for _, c := range cells {
		k := c.Buildset + "/" + c.Backend
		if byBS[k] == nil {
			byBS[k] = map[string]Cell{}
		}
		byBS[k][c.ISA] = c
	}
	// Columns come from the same isa.Names() list buildAllMixes sweeps: a
	// newly registered ISA lands in the rendered table and geomeans the
	// moment it is swept, instead of being measured and silently dropped.
	names := isa.Names()
	t := stats.NewTable(append([]string{"Semantic", "Informational", "Spec."}, names...)...)
	for _, be := range cfg.backends() {
		tag := be.cellTag()
		for _, bs := range isa.StdBuildsets {
			sem, info, spec := rowLabel(bs)
			if be == BackendAOT {
				sem += " (aot)"
			}
			row := byBS[bs+"/"+tag]
			out := []any{sem, info, spec}
			for _, name := range names {
				out = append(out, cfg.Metric.entry(row[name]))
			}
			t.Row(out...)
		}
		// Summary row per backend: the per-ISA geometric mean over the ok
		// interfaces. ERR cells are skipped in cellGeoMean — their zero
		// metrics would violate GeoMean's positive-input contract and wipe
		// the row.
		label := "ok cells"
		if be == BackendAOT {
			label = "ok aot cells"
		}
		var beCells []Cell
		for _, c := range cells {
			if c.Backend == tag {
				beCells = append(beCells, c)
			}
		}
		geo := []any{"geomean", label, ""}
		for _, name := range names {
			geo = append(geo, cellGeoMean(beCells, name, cfg.Metric))
		}
		t.Row(geo...)
	}
	return t
}

// Ablations measures the design-choice ablations DESIGN.md calls out —
// translated vs. interpreted base cost (paper footnote 5), DCE on/off,
// forced per-instruction block records — across cfg's worker pool. Like
// TableII it returns the raw cells alongside the rendered table, so
// callers can fold them into run manifests.
func Ablations(cfg Config) ([]Cell, *stats.Table, error) {
	type variant struct {
		label string
		bs    string
		opts  core.Options
	}
	variants := []variant{
		{"One/Min translated (ns/instr)", "one_min", core.Options{}},
		{"One/Min interpreted (ns/instr)", "one_min", core.Options{NoTranslate: true}},
		{"One/Min no-DCE (ns/instr)", "one_min", core.Options{NoDCE: true}},
		{"Block/Min per-instr records (ns/instr)", "block_min", core.Options{ForceRecords: true}},
	}
	mixes, err := buildAllMixes(cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	var jobs []cellJob
	for _, progs := range mixes {
		for _, v := range variants {
			jobs = append(jobs, cellJob{progs: progs, buildset: v.bs, opts: v.opts})
		}
	}
	cells, err := runCells(jobs, cfg, cfg.MinDur)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable(append([]string{"Configuration"}, isa.Names()...)...)
	for vi, v := range variants {
		row := []any{v.label}
		for mi := range mixes {
			c := cells[mi*len(variants)+vi]
			if c.Err != nil {
				row = append(row, errMark(c.Err))
			} else {
				row = append(row, c.NsPerInstr)
			}
		}
		t.Row(row...)
	}
	return cells, t, nil
}
