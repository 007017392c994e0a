package expt

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// typed error (after its one retry), every other cell's measurement is
// intact, and nothing escapes the worker pool.
func TestSweepSurvivesPanickingCell(t *testing.T) {
	progs := testMix(t)
	buildsets := []string{"one_min", "block_min", "one_all"}
	var jobs []cellJob
	for _, bs := range buildsets {
		jobs = append(jobs, cellJob{progs: progs, buildset: bs})
	}
	cfg := Config{
		Workers: 3,
		testHook: func(isaName, buildset string, attempt int) {
			if buildset == "block_min" {
				panic("injected cell failure")
			}
		},
	}
	cells := runCells(jobs, cfg, 0)
	for idx, c := range cells {
		bs := buildsets[idx]
		if bs == "block_min" {
			if c.Err == nil {
				t.Fatal("panicking cell reported no error")
			}
			if c.Err.Kind != CellPanic {
				t.Errorf("kind = %v, want panic", c.Err.Kind)
			}
			if c.Err.Attempts != 2 {
				t.Errorf("attempts = %d, want 2 (one retry)", c.Err.Attempts)
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

// TestCellRetryRecoversTransientPanic panics once, mid-cell, after the
// first attempt has measured part of the mix: the bounded retry must
// re-measure the cell from scratch and report exactly the clean run's
// deterministic totals, with Attempts = 2.
func TestCellRetryRecoversTransientPanic(t *testing.T) {
	jobs := []cellJob{{progs: testMix(t), buildset: "one_min"}}
	clean := runCells(jobs, Config{Metric: MetricWork}, 0)
	if clean[0].Err != nil {
		t.Fatal(clean[0].Err)
	}
	var chunks atomic.Int64
	cfg := Config{
		Metric: MetricWork,
		testChunkHook: func(r *Runner) {
			if chunks.Add(1) == 3 {
				panic("transient")
			}
		},
	}
	c := runCells(jobs, cfg, 0)[0]
	if c.Err != nil {
		t.Fatalf("retry did not recover: %v", c.Err)
	}
	if c.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", c.Attempts)
	}
	if c.Instret != clean[0].Instret {
		t.Errorf("instret %d differs from clean run %d", c.Instret, clean[0].Instret)
	}
	if c.WorkUnits != clean[0].WorkUnits {
		t.Errorf("work units %d differ from clean run %d", c.WorkUnits, clean[0].WorkUnits)
	}
	if c.WorkPerInstr != clean[0].WorkPerInstr {
		t.Errorf("work/instr %v differs from clean run %v", c.WorkPerInstr, clean[0].WorkPerInstr)
	}
}

// TestInterruptedSweepWindsDown closes the interrupt channel before the
// sweep starts: every cell must be marked interrupted without running.
func TestInterruptedSweepWindsDown(t *testing.T) {
	progs := testMix(t)
	var jobs []cellJob
	for _, bs := range []string{"one_min", "block_min", "one_all"} {
		jobs = append(jobs, cellJob{progs: progs, buildset: bs})
	}
	stop := make(chan struct{})
	close(stop)
	cfg := Config{Workers: 2, Metric: MetricWork, Interrupt: stop}
	for _, c := range runCells(jobs, cfg, 0) {
		if c.Err == nil || c.Err.Kind != CellInterrupted {
			t.Errorf("cell %s/%s not marked interrupted: %+v", c.ISA, c.Buildset, c.Err)
		}
	}
}

// TestMidRunInterruptIsTyped interrupts a cell that is already executing:
// the cooperative watchdog must stop it at a chunk boundary with the
// interrupted kind (not retried), so a signal handler never waits for a
// long cell to finish.
func TestMidRunInterruptIsTyped(t *testing.T) {
	progs := testMix(t)
	stop := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Metric:        MetricWork,
		Interrupt:     stop,
		testChunkHook: func(r *Runner) { once.Do(func() { close(stop) }) },
	}
	cells := runCells([]cellJob{{progs: progs, buildset: "one_min"}}, cfg, 0)
	ce := cells[0].Err
	if ce == nil || ce.Kind != CellInterrupted {
		t.Fatalf("cell error = %+v, want interrupted", ce)
	}
	if ce.Attempts != 1 {
		t.Errorf("interrupted cell was retried: attempts = %d", ce.Attempts)
	}
	if !errors.Is(ce, errInterrupted) {
		t.Error("CellError does not unwrap to the interrupt sentinel")
	}
}

// TestRunLimitedDeadline runs an endless program under a short deadline:
// the cooperative watchdog must interrupt it between chunks instead of
// hanging the caller.
func TestRunLimitedDeadline(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	a, err := asm.New(i)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble("spin.s", `
.text
_start:
    br r31, _start
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSynth(t, i, "one_min")
	r := NewRunner(sim, i, prog)
	start := time.Now()
	_, _, err = r.RunLimited(Limits{Deadline: time.Now().Add(50 * time.Millisecond)})
	if !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want deadline sentinel", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("watchdog took %v to fire", time.Since(start))
	}
}
