package expt

// The AOT measurement backend: instead of the in-process closure
// interpreter, a cell is measured by running the mix through the generated
// standalone runner binary (internal/aot) over the length-prefixed pipe
// protocol. The speed numbers differ — that is the point of the comparison
// — but the deterministic work metric must not: the host reconstructs work
// from the runner's execution profile with the interpreter's own accounting
// (aot.ComputeWork), so work-per-instruction is byte-identical across
// backends. VerifyBackendParity enforces exactly that for -backend=both.

import (
	"fmt"
	"time"

	"singlespec/internal/aot"
	"singlespec/internal/core"
	"singlespec/internal/mach"
)

// Backend selects which execution engine measures sweep cells.
type Backend int

const (
	// BackendInterp measures with the in-process closure interpreter (the
	// default, and the only backend before the AOT subsystem existed).
	BackendInterp Backend = iota
	// BackendAOT measures with the generated standalone runner binary.
	BackendAOT
	// BackendBoth measures every cell under both backends; the sweep then
	// carries an interpreter cell and an AOT cell per (ISA, interface).
	BackendBoth
)

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "interp":
		return BackendInterp, nil
	case "aot":
		return BackendAOT, nil
	case "both":
		return BackendBoth, nil
	}
	return 0, fmt.Errorf("expt: unknown backend %q (want interp, aot, or both)", s)
}

// cellTag is the Cell.Backend value for cells measured under this backend.
func (b Backend) cellTag() string {
	if b == BackendAOT {
		return "aot"
	}
	return ""
}

func (b Backend) String() string {
	switch b {
	case BackendAOT:
		return "aot"
	case BackendBoth:
		return "both"
	}
	return "interp"
}

// measureCellAOT is measureCell's out-of-process twin: one (ISA, interface)
// cell measured through the generated runner binary. The schedule is the
// interpreter path's (kernelSamples.measure), timed by the runner's own
// clock, and each kernel gets a fresh runner process, since runner memory
// pages persist across in-process resets.
//
// The host cannot preempt a run in progress: a subprocess run is bounded
// by the per-exchange hard deadline below, and the cell deadline is
// checked between runs.
func measureCellAOT(p *Programs, buildset string, opts core.Options, minDur time.Duration, lim Limits, det bool, cfg Config) (Cell, error) {
	sim, err := core.Synthesize(p.ISA.Spec, buildset, opts)
	if err != nil {
		return Cell{}, err
	}
	b, err := aot.Build(sim, aot.RunnerConvFor(p.ISA.Conv), cfg.AOTCacheDir, cfg.Obs)
	if err != nil {
		return Cell{}, err
	}

	// Hard deadline per protocol exchange with the runner process: the
	// cooperative cell watchdog cannot preempt a blocked pipe read, so a
	// wedged runner is killed (SIGTERM, then SIGKILL) and surfaces as a
	// typed timeout the guard treats as transient. Defaults to a generous
	// backstop so a silent runner can never hang a cell even when no
	// -cell-timeout was requested.
	hard := cfg.CellTimeout
	if hard <= 0 {
		hard = aotHardDeadline
	}

	cell := Cell{ISA: p.ISA.Name, Buildset: buildset, Backend: "aot"}
	var k kernelSamples
	for idx, prog := range p.Progs {
		kname := p.Names[idx]
		err := func() error {
			// A fresh runner per kernel: runner memory pages persist
			// across in-process resets.
			r, err := aot.SpawnWithDeadline(b.BinPath, cfg.Obs, hard)
			if err != nil {
				return fmt.Errorf("%s: %w", kname, err)
			}
			defer r.Close()
			if err := r.Init(prog, nil); err != nil {
				return fmt.Errorf("%s: %w", kname, err)
			}
			runOnce := func() (instrs, wk uint64, elapsed time.Duration, err error) {
				res, err := r.Run(aotRunBudget, false, 0)
				if err != nil {
					return 0, 0, 0, err
				}
				cell.Instret += res.Instret
				switch {
				case !res.Halted && res.Fault == mach.FaultNone:
					// The runner is another process: a reply that neither
					// halted nor faulted is malformed input, not a result.
					return 0, 0, 0, fmt.Errorf("expt: %s/%s: runner stopped at pc %#x after %d instructions without halting or faulting",
						p.ISA.Name, buildset, res.PC, res.Instret)
				case !res.Halted:
					return 0, 0, 0, fmt.Errorf("expt: %s/%s faulted (%d) at pc %#x",
						p.ISA.Name, buildset, res.Fault, res.PC)
				case res.ExitCode != 0:
					return 0, 0, 0, fmt.Errorf("expt: %s/%s exited %d", p.ISA.Name, buildset, res.ExitCode)
				}
				w, err := aot.ComputeWork(sim, res)
				if err != nil {
					return 0, 0, 0, err
				}
				cell.WorkUnits += w
				return maxU64(res.Instret, 1), w, time.Duration(maxU64(res.ElapsedNs, 1)), nil
			}
			return k.measure(runOnce, minDur, lim, det)
		}()
		if err != nil {
			return Cell{}, err
		}
	}
	k.fill(&cell)
	return cell, nil
}

// aotRunBudget is the instruction budget of every AOT run: in effect
// unbounded, so a run ends only when the program halts or faults.
const aotRunBudget = 1 << 62

// aotHardDeadline is the default hard per-exchange deadline for runner
// processes when no -cell-timeout is set. Generous — cells finish in
// seconds — but finite, so a wedged runner is always killed.
const aotHardDeadline = 2 * time.Minute

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// VerifyBackendParity checks a both-backend sweep's deterministic parity:
// every (ISA, buildset) measured by both backends must report bit-identical
// work-per-instruction (the ratio is repeat-count-invariant, so this holds
// under either metric). Under the deterministic schedule (det, i.e.
// -metric work) the raw Instret and WorkUnits totals must match too.
// Host-time numbers (MIPS, ns/instr) are expected to differ — they are the
// measurement. Pairs where either side errored are skipped; cell errors
// are reported through the usual channel.
func VerifyBackendParity(cells []Cell, det bool) []error {
	type key struct{ isa, bs string }
	interp := map[key]Cell{}
	for _, c := range cells {
		if c.Backend == "" && c.Err == nil {
			interp[key{c.ISA, c.Buildset}] = c
		}
	}
	var errs []error
	for _, c := range cells {
		if c.Backend != "aot" || c.Err != nil {
			continue
		}
		ref, ok := interp[key{c.ISA, c.Buildset}]
		if !ok {
			continue
		}
		if c.WorkPerInstr != ref.WorkPerInstr {
			errs = append(errs, fmt.Errorf(
				"expt: %s/%s work-per-instruction diverges: interpreter %v, aot %v",
				c.ISA, c.Buildset, ref.WorkPerInstr, c.WorkPerInstr))
			continue
		}
		if det && (c.Instret != ref.Instret || c.WorkUnits != ref.WorkUnits) {
			errs = append(errs, fmt.Errorf(
				"expt: %s/%s totals diverge: interpreter instret=%d work=%d, aot instret=%d work=%d",
				c.ISA, c.Buildset, ref.Instret, ref.WorkUnits, c.Instret, c.WorkUnits))
		}
	}
	return errs
}
