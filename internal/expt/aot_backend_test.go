package expt

import (
	"errors"
	"os"
	"testing"
	"time"

	"singlespec/internal/aot"
	"singlespec/internal/core"
	"singlespec/internal/isa"
)

// TestAOTBackendCellParity measures one cell under both backends with the
// deterministic schedule and requires exact agreement on everything the
// work metric reports: per-cell totals and the geomean work-per-instruction
// that lands in Table II and the bench JSON.
func TestAOTBackendCellParity(t *testing.T) {
	i, err := isa.Load("alpha64")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := BuildMix(i, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Metric: MetricWork, AOTCacheDir: t.TempDir()}
	for _, bs := range []string{"one_min", "block_all", "step_all"} {
		ref, err := measureCell(progs, bs, core.Options{}, time.Millisecond, Limits{}, true)
		if err != nil {
			t.Fatalf("%s: interp: %v", bs, err)
		}
		got, err := measureCellAOT(progs, bs, core.Options{}, time.Millisecond, Limits{}, true, cfg)
		if errors.Is(err, aot.ErrNoToolchain) {
			t.Skip("skipping: go toolchain not available on PATH")
		}
		if err != nil {
			t.Fatalf("%s: aot: %v", bs, err)
		}
		if got.Backend != "aot" {
			t.Fatalf("%s: aot cell not tagged: %+v", bs, got)
		}
		if got.Instret != ref.Instret || got.WorkUnits != ref.WorkUnits {
			t.Errorf("%s: totals diverge: interp instret=%d work=%d, aot instret=%d work=%d",
				bs, ref.Instret, ref.WorkUnits, got.Instret, got.WorkUnits)
		}
		if got.WorkPerInstr != ref.WorkPerInstr {
			t.Errorf("%s: work/instr diverges: interp %v, aot %v", bs, ref.WorkPerInstr, got.WorkPerInstr)
		}
	}
}

// TestAOTSweepRemovesDefaultCache: a sweep whose AOT cells have no cache
// directory builds their runners in a temporary cache and removes it before
// it returns, leaving nothing under TMPDIR.
func TestAOTSweepRemovesDefaultCache(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	jobs := []cellJob{{progs: testMix(t), buildset: "one_min", backend: BackendAOT}}
	cells, err := runCells(jobs, Config{Metric: MetricWork}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ce := cells[0].Err; ce != nil {
		if errors.Is(ce, aot.ErrNoToolchain) {
			t.Skip("skipping: go toolchain not available on PATH")
		}
		t.Fatal(ce)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("sweep left %s under TMPDIR", e.Name())
	}
}

// TestVerifyBackendParity exercises the parity checker itself on synthetic
// cells: agreement, work divergence, and det-only total divergence.
func TestVerifyBackendParity(t *testing.T) {
	mk := func(backend string, wpi float64, instret, work uint64) Cell {
		return Cell{ISA: "alpha64", Buildset: "one_min", Backend: backend,
			WorkPerInstr: wpi, Instret: instret, WorkUnits: work}
	}
	ok := []Cell{mk("", 31.5, 100, 3150), mk("aot", 31.5, 100, 3150)}
	if errs := VerifyBackendParity(ok, true); len(errs) != 0 {
		t.Fatalf("agreeing cells reported divergent: %v", errs)
	}
	wpi := []Cell{mk("", 31.5, 100, 3150), mk("aot", 31.6, 100, 3150)}
	if errs := VerifyBackendParity(wpi, false); len(errs) != 1 {
		t.Fatalf("work/instr divergence not reported: %v", errs)
	}
	totals := []Cell{mk("", 31.5, 100, 3150), mk("aot", 31.5, 200, 6300)}
	if errs := VerifyBackendParity(totals, true); len(errs) != 1 {
		t.Fatalf("det total divergence not reported: %v", errs)
	}
	if errs := VerifyBackendParity(totals, false); len(errs) != 0 {
		t.Fatalf("totals must not be compared outside the det schedule: %v", errs)
	}
}

// TestParseBackend covers the flag axis.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"", BackendInterp}, {"interp", BackendInterp}, {"aot", BackendAOT}, {"both", BackendBoth}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseBackend("jit"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
}
