package kernels_test

import (
	"errors"
	"os"
	"sync"
	"testing"

	"singlespec/internal/aot"
	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/faultinj"
	"singlespec/internal/isa"
	"singlespec/internal/isa/isatest"
	"singlespec/internal/kernels"
)

// AOT differential testing: the same seeded random programs the rotating
// interpreter test replays (diffSeeds) are lowered to every ISA and
// executed under both the closure interpreter and the generated runner
// binary. aot.DiffProgram compares what both backends produce, at
// retire granularity: the byte-identical visibility-record stream and the
// complete final architectural state. Work units are an interpreter metric
// and are not compared. The runners leave their machine's journal off, so
// agreement on a _spec buildset covers runs without rollback only.
//
// There are exactly twelve seeds and twelve standard buildsets, so seed i
// runs under StdBuildsets[i]: across one test run every derived interface is
// exercised against the AOT backend on every ISA.

// runnerCacheDir is one runner cache for the whole test binary, so a runner
// both AOT suites need is compiled once.
var (
	runnerCacheOnce sync.Once
	runnerCacheDir  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if runnerCacheDir != "" {
		os.RemoveAll(runnerCacheDir)
	}
	os.Exit(code)
}

// buildRunner returns the runner binary for sim from the shared cache,
// skipping the test when no go toolchain is on PATH or the module source
// runners build in is missing.
func buildRunner(t *testing.T, i *isa.ISA, sim *core.Sim) string {
	t.Helper()
	runnerCacheOnce.Do(func() {
		dir, err := os.MkdirTemp("", "aot-kdiff-*")
		if err == nil {
			runnerCacheDir = dir
		}
	})
	if runnerCacheDir == "" {
		t.Fatal("creating shared runner cache failed")
	}
	b, err := aot.Build(sim, aot.RunnerConvFor(i.Conv), runnerCacheDir, nil)
	if errors.Is(err, aot.ErrNoToolchain) || errors.Is(err, aot.ErrNoSource) {
		t.Skipf("skipping: %v", err)
	}
	if err != nil {
		t.Fatalf("%s/%s: build: %v", i.Name, sim.BS.Name, err)
	}
	return b.BinPath
}

// diffFresh diffs prog against a freshly spawned runner.
func diffFresh(sim *core.Sim, i *isa.ISA, prog *asm.Program, binPath string) (*faultinj.Divergence, error) {
	r, err := aot.Spawn(binPath, nil)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return aot.DiffProgram(sim, i, prog, r)
}

// TestSeededAOTDifferential diffs all 12 seeds x 3 ISAs, one buildset per
// seed, interpreter vs. AOT runner.
func TestSeededAOTDifferential(t *testing.T) {
	if len(diffSeeds) != len(isa.StdBuildsets) {
		t.Fatalf("seed table (%d) and StdBuildsets (%d) fell out of sync; revisit the pairing",
			len(diffSeeds), len(isa.StdBuildsets))
	}
	for seedIdx, seed := range diffSeeds {
		buildset := isa.StdBuildsets[seedIdx]
		p := genProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %#08x: generated invalid IR: %v", seed, err)
		}
		for _, name := range isa.Names() {
			i := isatest.Load(t, name)
			sim, err := core.Synthesize(i.Spec, buildset, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bin := buildRunner(t, i, sim)
			prog, err := kernels.BuildProgram(i, p)
			if err != nil {
				t.Fatalf("seed %#08x on %s: lower: %v", seed, name, err)
			}
			d, err := diffFresh(sim, i, prog, bin)
			if err != nil {
				t.Fatalf("seed %#08x on %s/%s: %v", seed, name, buildset, err)
			}
			if d != nil {
				t.Errorf("seed %#08x on %s/%s: %v (replay: add seed to diffSeeds)",
					seed, name, buildset, d)
			}
		}
	}
}

// TestKernelsAOTDifferential diffs every real benchmark kernel at a reduced
// problem size on every ISA under one buildset per interface mode, plus
// block_min, whose runner publishes no records, so its evidence is the final
// architectural state alone. The random programs above stress instruction
// mixes; this pins the actual workloads the experiment tables are built
// from. Its twelve runners are among the seeded suite's, so with the shared
// cache they are compiled once per test binary.
func TestKernelsAOTDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kernel sweep in -short mode")
	}

	smallN := map[string]int{
		"sieve": 200, "fib_iter": 24, "fib_rec": 8, "matmul": 4,
		"crc32": 64, "strsearch": 96, "listchase": 64, "bubblesort": 16,
		"hashmix": 100,
	}
	for _, name := range isa.Names() {
		i := isatest.Load(t, name)
		for _, buildset := range []string{"one_all", "block_decode", "block_min", "step_all_spec"} {
			sim, err := core.Synthesize(i.Spec, buildset, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bin := buildRunner(t, i, sim)
			for _, k := range kernels.All {
				n := smallN[k.Name]
				if n == 0 {
					n = k.DefaultN
				}
				prog, err := kernels.BuildProgram(i, k.Build(n))
				if err != nil {
					t.Fatalf("%s on %s: lower: %v", k.Name, name, err)
				}
				d, err := diffFresh(sim, i, prog, bin)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", k.Name, name, buildset, err)
				}
				if d != nil {
					t.Errorf("%s on %s/%s: %v", k.Name, name, buildset, d)
				}
			}
		}
	}
}
