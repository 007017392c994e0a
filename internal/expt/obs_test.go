package expt

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"singlespec/internal/core"
	"singlespec/internal/isa/isatest"
	"singlespec/internal/stats"
	"singlespec/internal/sysemu"
)

// TestSummaryGeoMeanSkipsErrCells is the regression test for the
// GeoMean-zeroing bug: one ERR cell (zero metrics) in a summary aggregate
// used to zero the whole row. cellGeoMean must skip error cells and
// aggregate only the ok ones, and the tables derived from Table II must
// mark every entry an ERR cell feeds instead of computing with its zeros.
func TestSummaryGeoMeanSkipsErrCells(t *testing.T) {
	cells := []Cell{
		{ISA: "alpha64", Buildset: "one_min", WorkPerInstr: 2, MIPS: 2},
		{ISA: "alpha64", Buildset: "one_all", WorkPerInstr: 8, MIPS: 8},
		{ISA: "alpha64", Buildset: "step_all", Err: &CellError{
			ISA: "alpha64", Buildset: "step_all", Kind: CellPanic}},
		{ISA: "alpha64", Buildset: "block_min", WorkPerInstr: 4, MIPS: 4},
		{ISA: "alpha64", Buildset: "step_all_spec", Err: &CellError{
			ISA: "alpha64", Buildset: "step_all_spec", Kind: CellFailed}},
		{ISA: "arm32", Buildset: "one_min", WorkPerInstr: 5, MIPS: 5},
		{ISA: "arm32", Buildset: "block_min", Err: &CellError{
			ISA: "arm32", Buildset: "block_min", Kind: CellPanic}},
		{ISA: "arm32", Buildset: "step_all_spec", WorkPerInstr: 40, MIPS: 1},
	}
	// geomean(2, 8, 4) = 4; the ERR cells (metric 0) and the other ISA's
	// cells must not participate.
	if g := cellGeoMean(cells, "alpha64", MetricWork); g != 4 {
		t.Errorf("cellGeoMean = %v, want 4 (ERR cells must be skipped)", g)
	}
	if g := cellGeoMean(cells, "alpha64", MetricMIPS); g != 4 {
		t.Errorf("cellGeoMean mips = %v, want 4", g)
	}
	// An ISA whose every cell errored aggregates to 0, not a panic.
	if g := cellGeoMean(cells, "ppc32", MetricWork); g != 0 {
		t.Errorf("all-ERR ISA should aggregate to 0, got %v", g)
	}

	// Table III: Step = step_all - one_all, block-call = block_min -
	// one_min. Columns are alpha64, arm32, ppc32.
	t3 := tableRows(TableIII(cells))
	for label, want := range map[string][]string{
		"Incremental: full information":      {`0 \| 6.00`, `0 \| -5.00`, `0 \| 0`},
		"Incremental: multiple calls (Step)": {"ERR:panic", `0 \| 0`, `0 \| 0`},
		"Incremental: block-call":            {`0 \| 2.00`, "ERR:panic", `0 \| 0`},
	} {
		if got := t3[label]; !reflect.DeepEqual(got, want) {
			t.Errorf("Table III %q = %q, want %q", label, got, want)
		}
	}
	// Headline: a failed cell marks its own column and the speedup.
	head := tableRows(Headline(cells, MetricWork))
	for isaName, want := range map[string][]string{
		"alpha64": {"4.00", "ERR:failed", "ERR:failed"},
		"arm32":   {"ERR:panic", "40.0", "ERR:panic"},
		"ppc32":   {"0", "0", "0.0x"},
	} {
		if got := head[isaName]; !reflect.DeepEqual(got, want) {
			t.Errorf("headline %s = %q, want %q", isaName, got, want)
		}
	}
}

// tableRows parses a rendered table's data rows, keyed by first column.
func tableRows(tab *stats.Table) map[string][]string {
	rows := map[string][]string{}
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	for _, line := range lines[2:] {
		cells := splitRow(line)
		rows[cells[0]] = cells[1:]
	}
	return rows
}

// TestMeasureCellStats checks a measured cell carries its engine counters:
// translated interfaces must report cache traffic, every cell must report
// retired instructions, work and syscalls.
func TestMeasureCellStats(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	progs, err := BuildMix(i, 1)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := MeasureCell(progs, "block_min", core.Options{}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Instret == 0 || cell.WorkUnits == 0 {
		t.Errorf("raw totals missing: instret=%d work=%d", cell.Instret, cell.WorkUnits)
	}
	st := cell.Stats
	if st.Cache.BlockBuilds == 0 {
		t.Error("block interface should build blocks")
	}
	if st.Cache.BlockL1Hits == 0 {
		t.Error("repeat runs should hit the first-level block cache")
	}
	if st.Shared.BlockInsertions != st.Cache.BlockBuilds {
		t.Errorf("every built block should be published: built %d, inserted %d",
			st.Cache.BlockBuilds, st.Shared.BlockInsertions)
	}
	if st.Syscalls[sysemu.SysExit] == 0 { // every kernel run exits
		t.Errorf("syscall counts missing: %v", st.Syscalls)
	}
	if st.SyscallDenials != 0 || st.SyscallShorts != 0 {
		t.Errorf("clean run should have no syscall faults: %d/%d",
			st.SyscallDenials, st.SyscallShorts)
	}
}
