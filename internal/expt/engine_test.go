package expt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/stats"
)

// testJob is a cellJob naming isaName without loading the ISA: enough for
// its journal key.
func testJob(isaName, buildset string, opts core.Options, be Backend) cellJob {
	return cellJob{progs: &Programs{ISA: &isa.ISA{Name: isaName}},
		buildset: buildset, opts: opts, backend: be}
}

// TestJobSpecKeyGolden freezes the cell-key format. These strings are a
// compatibility contract: they name cells in resume journals, so any
// change here invalidates every journal written before it. If this test
// fails, you changed the key format — don't update the goldens without a
// migration story for old journals.
func TestJobSpecKeyGolden(t *testing.T) {
	zero := "{NoTranslate:false NoDCE:false ForceRecords:false MaxBlockLen:0 CacheCap:0}"
	cases := []struct {
		job  cellJob
		want string
	}{
		{testJob("alpha64", "one_min", core.Options{}, BackendInterp),
			"alpha64/one_min/" + zero},
		{testJob("arm32", "step_all_spec", core.Options{}, BackendAOT),
			"arm32/step_all_spec/" + zero + "/aot"},
		{testJob("ppc32", "one_min", core.Options{NoTranslate: true}, BackendInterp),
			"ppc32/one_min/{NoTranslate:true NoDCE:false ForceRecords:false MaxBlockLen:0 CacheCap:0}"},
		{testJob("alpha64", "block_min",
			core.Options{NoDCE: true, ForceRecords: true, MaxBlockLen: 7, CacheCap: 128}, BackendInterp),
			"alpha64/block_min/{NoTranslate:false NoDCE:true ForceRecords:true MaxBlockLen:7 CacheCap:128}"},
	}
	for _, c := range cases {
		if got := c.job.key(); got != c.want {
			t.Errorf("key of %s/%s %+v backend %v:\n got %q\nwant %q",
				c.job.progs.ISA.Name, c.job.buildset, c.job.opts, c.job.backend, got, c.want)
		}
	}
}

// TestJobSpecKeyMatchesLegacyFormat proves byte-compatibility with the
// %+v rendering the key historically derived its options portion from, so
// journals written by earlier versions still resolve. (For today's
// core.Options the two coincide; canonicalOpts exists so they stay
// coincident even when the struct changes.)
func TestJobSpecKeyMatchesLegacyFormat(t *testing.T) {
	for _, o := range []core.Options{
		{},
		{NoTranslate: true},
		{NoDCE: true, ForceRecords: true, MaxBlockLen: 5, CacheCap: 64},
	} {
		legacy := fmt.Sprintf("%+v", o)
		if got := canonicalOpts(o); got != legacy {
			t.Errorf("canonicalOpts(%+v) = %q, legacy %%+v rendering %q", o, got, legacy)
		}
	}
}

// TestJobSpecKeyCoversOptions is the tripwire the bug report asked for:
// canonicalOpts names every core.Options field explicitly, so this test
// fails the moment a field is added, removed, or renamed — forcing the
// author to decide, deliberately, how the new field joins the key (and
// what happens to journals that predate it), instead of %+v silently
// changing every key.
func TestJobSpecKeyCoversOptions(t *testing.T) {
	want := []string{"NoTranslate", "NoDCE", "ForceRecords", "MaxBlockLen", "CacheCap"}
	tp := reflect.TypeOf(core.Options{})
	var got []string
	for i := 0; i < tp.NumField(); i++ {
		got = append(got, tp.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("core.Options fields changed: got %v, canonicalOpts encodes %v.\n"+
			"Update canonicalOpts (and the goldens in TestJobSpecKeyGolden) deliberately: "+
			"decide how the new field joins the cell key and how pre-existing journals resolve.",
			got, want)
	}
}

// TestOldFormatJournalResolves writes a journal under the frozen key
// format and reopens it: every cell must resolve by cellJob.key() lookup
// — no silent recomputation of journaled cells across the key change.
func TestOldFormatJournalResolves(t *testing.T) {
	dir := t.TempDir()
	job := testJob("alpha64", "one_min", core.Options{}, BackendInterp)
	// The literal key an old-version journal would contain (not computed
	// via key(), so this test still fails if key() drifts).
	oldKey := "alpha64/one_min/{NoTranslate:false NoDCE:false ForceRecords:false MaxBlockLen:0 CacheCap:0}"
	j, err := OpenJournal(dir, "run-old", "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{ISA: "alpha64", Buildset: "one_min", MIPS: 12, NsPerInstr: 83,
		WorkPerInstr: 4, Instret: 1000, WorkUnits: 4000, Attempts: 1}
	if err := j.Record(oldKey, cell); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir, "run-new", "fp", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.Lookup(job.key())
	if !ok {
		t.Fatalf("journaled cell under old-format key %q does not resolve via key() %q",
			oldKey, job.key())
	}
	if got.Instret != cell.Instret || got.WorkUnits != cell.WorkUnits {
		t.Fatalf("restored cell mismatch: got %+v want %+v", got, cell)
	}
}

// TestRenderTableIIColumnsMatchSpecs asserts the rendered Table II columns
// agree with the swept cell list: both derive from isa.Names(), so a
// registered fourth ISA is swept AND rendered, never silently dropped.
func TestRenderTableIIColumnsMatchSpecs(t *testing.T) {
	cfg := Config{Metric: MetricWork}
	mixes, err := buildAllMixes(1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tableIIJobs(cfg, mixes)
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
	table := renderTableII(cfg, cells)

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

// splitRow splits one rendered markdown table row into trimmed cells.
func splitRow(line string) []string {
	parts := strings.Split(strings.Trim(line, "|"), "|")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}
