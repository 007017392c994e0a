package core_test

import (
	"testing"

	"singlespec/internal/core"
	"singlespec/internal/expt"
	"singlespec/internal/isa"
	"singlespec/internal/sysemu"
)

// TestTablesSizedToProgram: after a full run of every kernel of the Table
// II mix, on every ISA, the first-level tables of the interpreter's
// one-record-per-instruction (one_all) and block (block_decode) Execs stay
// within 64 KiB, where sizing them at CacheCap would take 2–4 MiB.
func TestTablesSizedToProgram(t *testing.T) {
	const maxTableBytes = 64 << 10
	for _, name := range isa.Names() {
		i, err := isa.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := expt.BuildMix(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []string{"one_all", "block_decode"} {
			sim, err := core.Synthesize(i.Spec, bs, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k, prog := range mix.Progs {
				m := i.Spec.NewMachine()
				sysemu.New(i.Conv).Install(m)
				prog.LoadInto(m)
				x := sim.NewExec(m)
				x.Run(1 << 30)
				if !m.Halted || m.ExitCode != 0 {
					t.Fatalf("%s/%s/%s: halted %v, exit %d", name, bs, mix.Names[k], m.Halted, m.ExitCode)
				}
				if n := core.ExecTableBytes(x); n > maxTableBytes {
					t.Errorf("%s/%s/%s: %d bytes of translation tables after the run, want at most %d",
						name, bs, mix.Names[k], n, maxTableBytes)
				}
			}
		}
	}
}
