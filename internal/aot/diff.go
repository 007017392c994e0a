package aot

import (
	"fmt"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/faultinj"
	"singlespec/internal/isa"
	"singlespec/internal/lis"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// diffBudget is the retired-instruction budget per side; exceeding it is an
// operational error (the comparison needs both sides to terminate), not a
// divergence.
const diffBudget = 4 << 20

// DiffProgram runs prog to completion under both the closure interpreter
// and the runner r and compares what both backends produce, at retire
// granularity: the complete visibility-record stream (every published
// record, in order, header and values), then the final architectural state
// (PC, instret, halt/exit status, final fault, every register of every
// space, emulated-OS output, the program's result word). On a buildset whose
// runner publishes no records (block_min) the final state is the whole
// evidence. Work units are an interpreter metric and are not compared.
// Both sides run with empty stdin and a budget of diffBudget instructions.
//
// The interpreter side is a freshly loaded machine. r must be a fresh
// session (a newly spawned runner or plugin session) so no state leaks
// between programs; DiffProgram inits it and runs prog once, and the caller
// closes it.
//
// It returns (nil, nil) when the sides agree, a *faultinj.Divergence
// pinpointing the first difference when they do not, and an error for
// operational failures (protocol, budget exhaustion).
func DiffProgram(sim *core.Sim, i *isa.ISA, prog *asm.Program, r Client) (*faultinj.Divergence, error) {
	// Interpreter side: collect the reference stream.
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	prog.LoadInto(m)
	x := sim.NewExec(m)
	var refRecs []core.Record
	copyRec := func(rec *core.Record) {
		c := *rec
		c.Vals = append([]uint64(nil), rec.Vals...)
		refRecs = append(refRecs, c)
	}
	refFault := mach.FaultNone
	switch {
	case sim.BS.Mode == lis.ModeBlock:
		var batch core.Batch
		for !m.Halted && m.Instret < diffBudget {
			ok := x.ExecBlock(&batch)
			for idx := range batch.Recs {
				copyRec(&batch.Recs[idx])
			}
			if !ok {
				refFault = batch.Fault
				break
			}
		}
	case len(sim.BS.Entrypoints) > 1:
		var rec core.Record
		for !m.Halted && m.Instret < diffBudget {
			rec.PC = m.PC
			for ep := range sim.BS.Entrypoints {
				x.StepCall(ep, &rec)
				copyRec(&rec)
			}
			if rec.Fault != mach.FaultNone {
				refFault = rec.Fault
				break
			}
		}
	default:
		var rec core.Record
		for !m.Halted && m.Instret < diffBudget {
			ok := x.ExecOne(&rec)
			copyRec(&rec)
			if !ok {
				refFault = rec.Fault
				break
			}
		}
	}
	if !m.Halted && refFault == mach.FaultNone {
		return nil, fmt.Errorf("aot: interpreter exceeded %d-instruction budget at pc %#x", diffBudget, m.PC)
	}

	// Runner side: one init, one recorded run.
	if err := checkHello(sim, r.Hello()); err != nil {
		return nil, err
	}
	if err := r.Init(prog, nil); err != nil {
		return nil, err
	}
	resultAddr := prog.Symbols["result"]
	res, err := r.Run(diffBudget, true, resultAddr)
	if err != nil {
		return nil, err
	}
	if !res.Halted && res.Fault == mach.FaultNone {
		return nil, fmt.Errorf("aot: runner exceeded %d-instruction budget at pc %#x", diffBudget, res.PC)
	}

	// First divergence in the visibility stream, with full record context.
	n := len(refRecs)
	if len(res.Records) < n {
		n = len(res.Records)
	}
	for idx := 0; idx < n; idx++ {
		if d := recordDiff(&refRecs[idx], &res.Records[idx], sim); d != "" {
			return &faultinj.Divergence{
				Instret: uint64(idx),
				RefPC:   refRecs[idx].PC,
				GotPC:   res.Records[idx].PC,
				Detail: fmt.Sprintf("record %d: %s\n  interp: %s\n  aot:    %s",
					idx, d, fmtRec(&refRecs[idx], sim), fmtRec(&res.Records[idx], sim)),
			}, nil
		}
	}
	if len(refRecs) != len(res.Records) {
		d := &faultinj.Divergence{Instret: uint64(n), RefPC: m.PC, GotPC: res.PC,
			Detail: fmt.Sprintf("record stream length: interpreter %d, aot %d", len(refRecs), len(res.Records))}
		if n > 0 {
			d.Detail += fmt.Sprintf("\n  last common: %s", fmtRec(&refRecs[n-1], sim))
		}
		return d, nil
	}

	// Final architectural state.
	div := func(format string, args ...any) *faultinj.Divergence {
		return &faultinj.Divergence{Instret: m.Instret, RefPC: m.PC, GotPC: res.PC,
			Detail: fmt.Sprintf(format, args...)}
	}
	if m.Instret != res.Instret {
		return div("instret: interpreter %d, aot %d", m.Instret, res.Instret), nil
	}
	if m.PC != res.PC {
		return div("final pc: interpreter %#x, aot %#x", m.PC, res.PC), nil
	}
	if m.Halted != res.Halted || int64(m.ExitCode) != res.ExitCode {
		return div("exit status: interpreter halted=%v code=%d, aot halted=%v code=%d",
			m.Halted, m.ExitCode, res.Halted, res.ExitCode), nil
	}
	if refFault != res.Fault {
		return div("final fault: interpreter %d, aot %d", refFault, res.Fault), nil
	}
	if len(m.Spaces) != len(res.Spaces) {
		return div("space count: interpreter %d, aot %d", len(m.Spaces), len(res.Spaces)), nil
	}
	for si, sp := range m.Spaces {
		if len(sp.Vals) != len(res.Spaces[si]) {
			return div("space %s size: interpreter %d, aot %d", sp.Def.Name, len(sp.Vals), len(res.Spaces[si])), nil
		}
		for k, v := range sp.Vals {
			if got := res.Spaces[si][k]; v != got {
				return div("register %s[%d]: interpreter %#x, aot %#x", sp.Def.Name, k, v, got), nil
			}
		}
	}
	refOut := emu.Stdout.Bytes()
	if string(refOut) != string(res.Stdout) {
		return div("emulated stdout: interpreter %q, aot %q", refOut, res.Stdout), nil
	}
	if resultAddr != 0 {
		var refWord uint32
		if v, f := m.Mem.Load(resultAddr, 4); f == mach.FaultNone {
			refWord = uint32(v)
		}
		if refWord != res.ResultWord {
			return div("result word @%#x: interpreter %#x, aot %#x", resultAddr, refWord, res.ResultWord), nil
		}
	}
	return nil, nil
}

// checkHello verifies the runner self-description against the simulator the
// host synthesized, so a cache or wiring mixup fails loudly.
func checkHello(sim *core.Sim, h Hello) error {
	if h.Spec != sim.Spec.Name || h.Buildset != sim.BS.Name {
		return fmt.Errorf("aot: runner identifies as (%s, %s), host expected (%s, %s)",
			h.Spec, h.Buildset, sim.Spec.Name, sim.BS.Name)
	}
	names := sim.Layout.FieldNames()
	if len(h.VisNames) != len(names) {
		return fmt.Errorf("aot: runner has %d visible fields, host layout has %d", len(h.VisNames), len(names))
	}
	for i, n := range names {
		if h.VisNames[i] != n {
			return fmt.Errorf("aot: visible field %d: runner %q, host %q", i, h.VisNames[i], n)
		}
	}
	if h.NumEps != len(sim.BS.Entrypoints) {
		return fmt.Errorf("aot: runner has %d entrypoints, host buildset %d", h.NumEps, len(sim.BS.Entrypoints))
	}
	return nil
}

// recordDiff names the first differing record field, or "".
func recordDiff(a, b *core.Record, sim *core.Sim) string {
	switch {
	case a.PC != b.PC:
		return "pc differs"
	case a.PhysPC != b.PhysPC:
		return "phys_pc differs"
	case a.NextPC != b.NextPC:
		return "next_pc differs"
	case a.InstrBits != b.InstrBits:
		return "instr_bits differs"
	case a.InstrID != b.InstrID:
		return "instr id differs"
	case a.Fault != b.Fault:
		return "fault differs"
	case a.Nullified != b.Nullified:
		return "nullify differs"
	case len(a.Vals) != len(b.Vals):
		return fmt.Sprintf("value count differs (%d vs %d)", len(a.Vals), len(b.Vals))
	}
	names := sim.Layout.FieldNames()
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			name := fmt.Sprintf("value %d", i)
			if i < len(names) {
				name = names[i]
			}
			return fmt.Sprintf("visible field %s differs", name)
		}
	}
	return ""
}

// fmtRec renders one record with named values for divergence reports.
func fmtRec(r *core.Record, sim *core.Sim) string {
	s := fmt.Sprintf("pc=%#x phys=%#x next=%#x bits=%#x id=%d fault=%d null=%v",
		r.PC, r.PhysPC, r.NextPC, r.InstrBits, r.InstrID, r.Fault, r.Nullified)
	names := sim.Layout.FieldNames()
	for i, v := range r.Vals {
		name := fmt.Sprintf("v%d", i)
		if i < len(names) {
			name = names[i]
		}
		s += fmt.Sprintf(" %s=%#x", name, v)
	}
	return s
}
