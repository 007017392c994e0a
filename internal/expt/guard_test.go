package expt

import (
	"strings"
	"testing"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/isa/isatest"
)

func mustSynth(t *testing.T, i *isa.ISA, bs string) *core.Sim {
	t.Helper()
	sim, err := core.Synthesize(i.Spec, bs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// testMix assembles the alpha64 scale-1 mix once per test that needs it.
func testMix(t *testing.T) *Programs {
	t.Helper()
	i := isatest.Load(t, "alpha64")
	progs, err := BuildMix(i, 1)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// TestSweepSurvivesPanickingCell injects a panic into one cell of a sweep
// and checks the containment contract: the panicking cell is marked with a
// typed error after one attempt, every other cell's measurement is intact,
// and nothing escapes the sweep.
func TestSweepSurvivesPanickingCell(t *testing.T) {
	progs := testMix(t)
	buildsets := []string{"one_min", "block_min", "one_all"}
	var jobs []cellJob
	for _, bs := range buildsets {
		jobs = append(jobs, cellJob{progs: progs, buildset: bs})
	}
	attempts := 0
	cfg := Config{
		testHook: func(isaName, buildset string) {
			if buildset == "block_min" {
				attempts++
				panic("injected cell failure")
			}
		},
	}
	cells := runCells(jobs, cfg)
	if attempts != 1 {
		t.Errorf("panicking cell ran %d times, want 1", attempts)
	}
	for idx, c := range cells {
		bs := buildsets[idx]
		if bs == "block_min" {
			if c.Err == nil {
				t.Fatal("panicking cell reported no error")
			}
			if c.Err.Kind != CellPanic {
				t.Errorf("kind = %v, want panic", c.Err.Kind)
			}
			if !strings.Contains(c.Err.Error(), "injected cell failure") {
				t.Errorf("error %q lost the panic value", c.Err.Error())
			}
			if len(c.Err.Stack) == 0 {
				t.Error("panic stack not captured")
			}
			if c.ISA != "alpha64" || c.Buildset != "block_min" {
				t.Errorf("errored cell mislabeled: %s/%s", c.ISA, c.Buildset)
			}
			continue
		}
		if c.Err != nil {
			t.Errorf("healthy cell %s errored: %v", bs, c.Err)
		}
		if c.WorkPerInstr <= 0 {
			t.Errorf("healthy cell %s has no measurement", bs)
		}
	}
	if errs := CellErrors(cells); len(errs) != 1 || errs[0].Buildset != "block_min" {
		t.Errorf("CellErrors = %v", errs)
	}
}

// TestRunnerRejectsNonzeroExit runs a program that exits 3: the runner must
// report it as an error, and the guarded sweep as a typed failed cell.
func TestRunnerRejectsNonzeroExit(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	a, err := asm.New(i)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble("exit3.s", `
.text
_start:
    addq r31, 1, r0        // SysExit
    addq r31, 3, r16
    callsys
`)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(mustSynth(t, i, "one_min"), i, prog)
	if _, _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "exited 3") {
		t.Fatalf("Run err = %v, want exit 3", err)
	}
	progs := &Programs{ISA: i, Progs: []*asm.Program{prog}, Names: []string{"exit3"}}
	c := runCells([]cellJob{{progs: progs, buildset: "one_min"}}, Config{Metric: MetricWork})[0]
	if c.Err == nil || c.Err.Kind != CellFailed {
		t.Fatalf("cell error = %v, want kind failed", c.Err)
	}
	if c.Err.Stack != nil {
		t.Error("failed cell carries a panic stack")
	}
}
