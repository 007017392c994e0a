package aot

import (
	"fmt"

	"singlespec/internal/core"
	"singlespec/internal/lis"
)

// ComputeWork reconstructs the interpreter's deterministic work-unit total
// for one runner run from its (pc, bits) execution profile and final fault
// kind. The formulas are the closure engine's own accounting, read through
// the core workmodel accessors, so the metric has exactly one definition:
//
//	One   decoded attempt: translated-unit work + publish
//	      (NoTranslate ablation: dynamic-unit work + publish)
//	Block decoded attempt: translated-unit work, + publish only when the
//	      buildset emits per-instruction records
//	Step  decoded attempt: (dynamic-unit work - 2) + (2E-1) publishes —
//	      E per-entrypoint publishes plus E-1 record imports, where the
//	      -2 drops the per-unit dispatch charge Step never pays
//	Final fetch-fault/undecodable attempt: fault-unit work in place of the
//	      unit work, same shape otherwise (Block's dynamic fallback always
//	      publishes, even below record-emitting detail)
//
// A final attempt that decoded (e.g. the exit syscall, or a mid-execution
// memory fault) is already in the profile and charged as decoded.
func ComputeWork(sim *core.Sim, res *RunResult) (uint64, error) {
	step := len(sim.BS.Entrypoints) > 1
	block := sim.BS.Mode == lis.ModeBlock
	e := uint64(len(sim.BS.Entrypoints))
	pub := sim.PubWork()
	stepPub := (2*e - 1) * pub

	type unitKey struct {
		pc   uint64
		bits uint32
	}
	cache := make(map[unitKey]uint64, len(res.Profile))
	var work uint64
	for _, pe := range res.Profile {
		uw, ok := cache[unitKey{pe.PC, pe.Bits}]
		if !ok {
			switch {
			case step:
				dw, decOK := sim.DynamicUnitWork(pe.Bits)
				if !decOK {
					return 0, fmt.Errorf("aot: profile entry pc %#x bits %#x does not decode", pe.PC, pe.Bits)
				}
				uw = (dw - 2) + stepPub
			case block:
				tw, decOK := sim.TranslatedUnitWork(pe.PC, pe.Bits)
				if !decOK {
					return 0, fmt.Errorf("aot: profile entry pc %#x bits %#x does not decode", pe.PC, pe.Bits)
				}
				uw = tw
				if sim.EmitsRecords() {
					uw += pub
				}
			case sim.Opts.NoTranslate:
				dw, decOK := sim.DynamicUnitWork(pe.Bits)
				if !decOK {
					return 0, fmt.Errorf("aot: profile entry pc %#x bits %#x does not decode", pe.PC, pe.Bits)
				}
				uw = dw + pub
			default:
				tw, decOK := sim.TranslatedUnitWork(pe.PC, pe.Bits)
				if !decOK {
					return 0, fmt.Errorf("aot: profile entry pc %#x bits %#x does not decode", pe.PC, pe.Bits)
				}
				uw = tw + pub
			}
			cache[unitKey{pe.PC, pe.Bits}] = uw
		}
		work += pe.Count * uw
	}
	switch res.FaultKind {
	case 1, 2:
		fw := sim.FaultUnitWork()
		if step {
			work += (fw - 2) + stepPub
		} else {
			work += fw + pub
		}
	}
	return work, nil
}
