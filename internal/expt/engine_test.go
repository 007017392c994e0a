package expt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"singlespec/internal/isa"
	"singlespec/internal/obs"
	"singlespec/internal/stats"
)

// TestSweepRepeatable runs the same three alpha64 cells twice under the
// work metric and requires equal tables, registry snapshots and manifest
// cell outcomes. The work metric's fixed schedule (one warm-up and one
// measured run per kernel) is what makes this hold; wall_ms is a host
// observation outside the contract and is zeroed before comparison. The
// snapshot must also carry the counter families EXPERIMENTS.md documents
// and CI validates.
func TestSweepRepeatable(t *testing.T) {
	progs := testMix(t)
	var jobs []cellJob
	for _, bs := range []string{"block_min", "one_all", "step_all_spec"} {
		jobs = append(jobs, cellJob{progs: progs, buildset: bs})
	}
	run := func() (tables string, snap, outcomes []byte) {
		reg := obs.NewRegistry()
		cells := runCells(jobs, Config{Metric: MetricWork, Obs: reg})
		for _, ce := range CellErrors(cells) {
			t.Fatal(ce)
		}
		snap, err := reg.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		outs := Outcomes(cells)
		for i := range outs {
			outs[i].WallMS = 0
		}
		if outcomes, err = json.Marshal(outs); err != nil {
			t.Fatal(err)
		}
		tables = renderTableII(MetricWork, cells).String() + Headline(cells, MetricWork).String()
		return tables, snap, outcomes
	}
	tab1, snap1, out1 := run()
	tab2, snap2, out2 := run()
	if tab1 != tab2 {
		t.Errorf("tables differ between runs:\n--- first\n%s--- second\n%s", tab1, tab2)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("metrics snapshot differs between runs:\n--- first\n%s\n--- second\n%s", snap1, snap2)
	}
	if !bytes.Equal(out1, out2) {
		t.Errorf("cell outcomes differ between runs:\n--- first\n%s\n--- second\n%s", out1, out2)
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(snap1, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"core.transcache.unit.l1_hit", "core.transcache.unit.translations",
		"core.transcache.block.builds", "core.transcache.unit.shared_insert",
		"core.transcache.block.chain_link", "core.transcache.block.chain_follow",
		"expt.cell.ok", "expt.instret", "expt.work_units", "sysemu.calls.exit",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q missing or zero in snapshot", name)
		}
	}
	if snap.Histograms["expt.cell.work_per_instr"].Count == 0 {
		t.Error("work_per_instr histogram is empty")
	}
}

// TestRenderTableIIColumnsMatchSpecs asserts the rendered Table II columns
// agree with the swept cell list: both derive from isa.Names(), so a
// registered fourth ISA is swept AND rendered, never silently dropped.
func TestRenderTableIIColumnsMatchSpecs(t *testing.T) {
	mixes, err := buildAllMixes(1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tableIIJobs(mixes)
	sweptISAs := map[string]bool{}
	var sweptOrder []string
	for _, j := range jobs {
		if name := j.progs.ISA.Name; !sweptISAs[name] {
			sweptISAs[name] = true
			sweptOrder = append(sweptOrder, name)
		}
	}

	// Synthetic cells with a distinct per-ISA value, so a column/value
	// transposition is caught, not just a header mismatch.
	var cells []Cell
	for _, j := range jobs {
		name := j.progs.ISA.Name
		cells = append(cells, Cell{ISA: name, Buildset: j.buildset,
			WorkPerInstr: float64(indexOf(sweptOrder, name) + 2),
			MIPS:         1, NsPerInstr: 1, Instret: 1, WorkUnits: 1})
	}
	table := renderTableII(MetricWork, cells)

	header := table.Header()
	wantHeader := append([]string{"Semantic", "Informational", "Spec."}, isa.Names()...)
	if !reflect.DeepEqual(header, wantHeader) {
		t.Fatalf("table header %v, want %v", header, wantHeader)
	}
	if !reflect.DeepEqual(header[3:], sweptOrder) {
		t.Fatalf("rendered ISA columns %v disagree with swept specs' ISAs %v",
			header[3:], sweptOrder)
	}

	// Every data row must carry each ISA's value in that ISA's column.
	lines := strings.Split(strings.TrimSpace(table.String()), "\n")
	if len(lines) < 2+len(isa.StdBuildsets) {
		t.Fatalf("table too short:\n%s", table)
	}
	for _, line := range lines[2 : 2+len(isa.StdBuildsets)] {
		fields := splitRow(line)
		if len(fields) != len(header) {
			t.Fatalf("row has %d columns, header has %d: %q", len(fields), len(header), line)
		}
		for i, name := range header[3:] {
			want := stats.FormatSig(float64(indexOf(sweptOrder, name)+2), 3)
			if got := fields[3+i]; got != want {
				t.Errorf("column %s: got %q, want %q in row %q", name, got, want, line)
			}
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// splitRow splits one rendered markdown table row into trimmed cells. An
// escaped pipe (`\|`) stays inside its cell.
func splitRow(line string) []string {
	const esc = "\x00"
	line = strings.ReplaceAll(strings.Trim(line, "|"), `\|`, esc)
	parts := strings.Split(line, "|")
	for i, p := range parts {
		parts[i] = strings.ReplaceAll(strings.TrimSpace(p), esc, `\|`)
	}
	return parts
}
