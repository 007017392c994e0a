package expt

import (
	"reflect"
	"strings"
	"testing"

	"singlespec/internal/isa"
	"singlespec/internal/stats"
)

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
			MIPS:         1, NsPerInstr: 1, Instret: 1, WorkUnits: 1, Attempts: 1})
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
