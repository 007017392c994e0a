package expt

import (
	"fmt"
	"sync"
	"testing"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/isa/isatest"
	"singlespec/internal/kernels"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// These tests prove the shared-Sim contract documented in internal/mach:
// one synthesized Sim (compiled spec + shared translation cache) can be
// shared by N goroutines, each with its own Machine/Memory/Emulator, and
// every goroutine observes exactly the state, output, and work counts of a
// serial run. examples/multicore relies on it. Run them under -race to
// exercise the concurrency contract.

// printProg writes "OK\n" and exits 0 — the stdout-producing workload for
// the determinism comparison.
const printProg = `
.text
_start:
    addq r31, 2, r0        // SysWrite
    addq r31, 1, r16       // fd
    ldah r17, ha(msg)(r31)
    lda  r17, lo(msg)(r17)
    addq r31, 3, r18
    callsys
    addq r31, 1, r0        // SysExit
    bis  r31, r31, r16
    callsys

.data
msg: .ascii "OK\n"
`

// outcome captures everything observable about one program execution.
type outcome struct {
	snap   mach.Snapshot
	stdout string
	work   uint64
	instrs uint64
	result uint64
}

// execShared runs prog to completion on a fresh machine through the shared
// sim and captures the outcome.
func execShared(t *testing.T, i *isa.ISA, sim *core.Sim, prog *asm.Program) outcome {
	t.Helper()
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	prog.LoadInto(m)
	x := sim.NewExec(m)
	x.Run(1 << 62)
	if !m.Halted || m.ExitCode != 0 {
		t.Errorf("%s/%s: halted=%v exit=%d", i.Name, sim.BS.Name, m.Halted, m.ExitCode)
	}
	out := outcome{
		snap: m.Snapshot(), stdout: emu.Stdout.String(),
		work: x.Work(), instrs: m.Instret,
	}
	if addr, ok := prog.Symbols["result"]; ok {
		v, f := m.Mem.Load(addr, 4)
		if f != mach.FaultNone {
			t.Errorf("%s/%s: result load faulted", i.Name, sim.BS.Name)
		}
		out.result = v
	}
	return out
}

func (o outcome) diff(ref outcome, spaceNames []string) string {
	if eq, why := o.snap.Equal(ref.snap, spaceNames); !eq {
		return "architectural state: " + why
	}
	if o.stdout != ref.stdout {
		return fmt.Sprintf("stdout: %q vs %q", o.stdout, ref.stdout)
	}
	if o.work != ref.work {
		return fmt.Sprintf("work: %d vs %d", o.work, ref.work)
	}
	if o.instrs != ref.instrs {
		return fmt.Sprintf("instrs: %d vs %d", o.instrs, ref.instrs)
	}
	if o.result != ref.result {
		return fmt.Sprintf("result: %#x vs %#x", o.result, ref.result)
	}
	return ""
}

// TestSharedSimParallelDeterminism runs the same kernel on the same
// {ISA, buildset} from N concurrent goroutines sharing one compiled spec
// and asserts each run matches the serial reference exactly: final
// architectural state, captured stdout, and work-unit counts.
func TestSharedSimParallelDeterminism(t *testing.T) {
	const workers = 8
	i := isatest.Load(t, "alpha64")

	k := kernels.ByName("crc32")
	crcProg, err := kernels.BuildProgram(i, k.Build(256))
	if err != nil {
		t.Fatal(err)
	}
	a, err := asm.New(i)
	if err != nil {
		t.Fatal(err)
	}
	okProg, err := a.Assemble("print.s", printProg)
	if err != nil {
		t.Fatal(err)
	}
	var spaceNames []string
	for _, sp := range i.Spec.Spaces {
		spaceNames = append(spaceNames, sp.Name)
	}

	// one_all exercises the shared per-PC unit cache, block_min the shared
	// block cache, step_all_spec the multi-entrypoint path with the journal
	// enabled.
	for _, bsName := range []string{"one_all", "block_min", "step_all_spec"} {
		t.Run(bsName, func(t *testing.T) {
			sim, err := core.Synthesize(i.Spec, bsName, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			crcRef := execShared(t, i, sim, crcProg)
			okRef := execShared(t, i, sim, okProg)
			if want := uint32(k.Ref(256)); uint32(crcRef.result) != want {
				t.Fatalf("serial crc32 result %#x, want %#x", crcRef.result, want)
			}
			if okRef.stdout != "OK\n" {
				t.Fatalf("serial stdout %q, want OK", okRef.stdout)
			}

			crcOut := make([]outcome, workers)
			okOut := make([]outcome, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					crcOut[w] = execShared(t, i, sim, crcProg)
					okOut[w] = execShared(t, i, sim, okProg)
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if d := crcOut[w].diff(crcRef, spaceNames); d != "" {
					t.Errorf("worker %d crc32 diverged from serial run: %s", w, d)
				}
				if d := okOut[w].diff(okRef, spaceNames); d != "" {
					t.Errorf("worker %d print diverged from serial run: %s", w, d)
				}
			}
		})
	}
}
