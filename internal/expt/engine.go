package expt

// The experiment engine: the paper's evaluation sweeps {ISA × interface}
// cells over a kernel mix. Cells run one at a time, in job order, so a
// timed cell never shares the host with another cell: the tables compare
// what one instruction costs, not how cells contend. Loaded ISAs, resolved
// lis.Specs and assembled Programs are built once per sweep and shared by
// its cells; each cell synthesizes its own Sim and machines.

import (
	"fmt"
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
	// tables are byte-identical from run to run regardless of host load.
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
	// Metric selects the table values (wall-clock MIPS or deterministic
	// work units).
	Metric Metric
	// Obs, when non-nil, receives the sweep's aggregate counters and
	// histograms: translation-cache traffic, syscall activity and per-cell
	// outcomes. Under MetricWork every per-cell delta is deterministic, so
	// the exported snapshot is byte-identical from run to run and across
	// hosts. Nil disables instrumentation at zero cost.
	Obs *obs.Registry
	// testHook, when non-nil, runs at the start of every cell. Tests
	// inject panics through it to exercise containment.
	testHook func(isaName, buildset string)
}

// cellJob is one {ISA × buildset × options} measurement to schedule.
type cellJob struct {
	progs    *Programs
	buildset string
	opts     core.Options
}

// runCells measures jobs one at a time, in job order. Every cell runs
// guarded: a panicking or failing cell is returned with its Err set while
// every other cell's result stays intact — the sweep never aborts partway.
func runCells(jobs []cellJob, cfg Config) []Cell {
	cells := make([]Cell, len(jobs))
	for i, j := range jobs {
		cells[i] = runCellGuarded(j, cfg)
	}
	recordCells(cfg.Obs, cells)
	return cells
}

// workPerInstrBuckets bounds the per-cell work-units-per-instruction
// histogram: interfaces in this engine land between a few units (Block/Min)
// and a few hundred (Step/All/Yes).
var workPerInstrBuckets = []uint64{4, 8, 16, 32, 64, 128, 256, 512}

// recordCells merges every cell's deterministic counters into reg, once
// per sweep.
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
		add("expt.instret", c.Instret)
		add("expt.work_units", c.WorkUnits)
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
			ISA:       c.ISA,
			Buildset:  c.Buildset,
			Status:    status,
			Instret:   c.Instret,
			WorkUnits: c.WorkUnits,
			WallMS:    float64(c.Wall.Microseconds()) / 1e3,
		})
	}
	return out
}

// buildAllMixes loads every ISA and assembles its kernel mix. The results
// are shared read-only by every cell of the sweep.
func buildAllMixes(scale int) ([]*Programs, error) {
	var out []*Programs
	for _, name := range isa.Names() {
		i, err := isa.Load(name)
		if err != nil {
			return nil, err
		}
		p, err := BuildMix(i, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// TableII measures all twelve interfaces on all three ISAs, one cell at a
// time. The returned cells are ordered ISA-major, buildset-minor (Table II
// order). Failed cells render as "ERR:<kind>" markers in the table (the
// degraded-rendering contract: the table is always complete); inspect them
// via CellErrors.
func TableII(cfg Config) ([]Cell, *stats.Table, error) {
	mixes, err := buildAllMixes(cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	cells := runCells(tableIIJobs(mixes), cfg)
	return cells, renderTableII(cfg.Metric, cells), nil
}

// tableIIJobs lists the Table II sweep's cells over mixes (one per ISA, in
// isa.Names() order) in the order TableII schedules them: ISA-major,
// buildset-minor.
func tableIIJobs(mixes []*Programs) []cellJob {
	var jobs []cellJob
	for _, p := range mixes {
		for _, bs := range isa.StdBuildsets {
			jobs = append(jobs, cellJob{progs: p, buildset: bs})
		}
	}
	return jobs
}

// renderTableII renders the Table II grid from measured cells under m.
func renderTableII(m Metric, cells []Cell) *stats.Table {
	byBS := map[string]map[string]Cell{}
	for _, c := range cells {
		if byBS[c.Buildset] == nil {
			byBS[c.Buildset] = map[string]Cell{}
		}
		byBS[c.Buildset][c.ISA] = c
	}
	// Columns come from the same isa.Names() list buildAllMixes sweeps: a
	// newly registered ISA lands in the rendered table and geomeans the
	// moment it is swept, instead of being measured and silently dropped.
	names := isa.Names()
	t := stats.NewTable(append([]string{"Semantic", "Informational", "Spec."}, names...)...)
	for _, bs := range isa.StdBuildsets {
		sem, info, spec := rowLabel(bs)
		out := []any{sem, info, spec}
		for _, name := range names {
			out = append(out, m.entry(byBS[bs][name]))
		}
		t.Row(out...)
	}
	// Summary row: the per-ISA geometric mean over the ok interfaces. ERR
	// cells are skipped in cellGeoMean — their zero metrics would violate
	// GeoMean's positive-input contract and wipe the row.
	geo := []any{"geomean", "ok cells", ""}
	for _, name := range names {
		geo = append(geo, cellGeoMean(cells, name, m))
	}
	t.Row(geo...)
	return t
}

// Ablations measures the design-choice ablations DESIGN.md calls out —
// translated vs. interpreted base cost (paper footnote 5), DCE on/off,
// forced per-instruction block records — one cell at a time. Like TableII
// it returns the raw cells alongside the rendered table, so callers can
// fold them into run manifests.
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
	cells := runCells(jobs, cfg)
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
