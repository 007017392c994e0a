package core

import (
	"testing"

	"singlespec/internal/lis"
	"singlespec/internal/mach"
)

// benchProgram is a tight loop: ALU + memory work, decrement, loop branch.
// r9 holds the iteration count.
func benchProgram() []uint32 {
	return []uint32{
		encALU(opADD, 1, 2, 3),
		encALU(opSUB, 3, 1, 4),
		encALU(opXOR, 3, 4, 5),
		encALU(opADD, 5, 2, 6),
		encMEM(opSTW, 6, 10, 0),
		encMEM(opLDW, 7, 10, 0),
		encALU(opADD, 7, 3, 8),
		encALU(opSUB, 9, 11, 9), // r9 -= 1
		encBR(opBEQ, 9, 1),      // r9 == 0: exit loop
		encBR(opBEQ, 15, -10),   // always taken: back to start
		encALU(opHLT, 15, 0, 0),
	}
}

func benchMachine(spec *lis.Spec, iters uint64) *mach.Machine {
	m := loadProgram(spec, benchProgram())
	r := m.MustSpace("r")
	r.Vals[1], r.Vals[2] = 5, 7
	r.Vals[10] = dataBase
	r.Vals[11] = 1
	r.Vals[9] = iters
	return m
}

func benchBuildset(b *testing.B, bs string, opts Options) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, bs, opts)
	if err != nil {
		b.Fatal(err)
	}
	m := benchMachine(spec, 1<<62)
	x := s.NewExec(m)
	b.ResetTimer()
	var n uint64
	for n < uint64(b.N) {
		chunk := uint64(b.N) - n
		if chunk > 65536 {
			chunk = 65536
		}
		n += x.Run(chunk)
		if m.JournalOn {
			// A speculative driver periodically commits; without it the
			// undo log would grow without bound.
			m.Journal.Reset()
		}
	}
	b.StopTimer()
	if m.Halted {
		b.Fatal("benchmark loop halted early")
	}
	b.ReportMetric(float64(n)/float64(b.N), "instrs/op")
}

// benchBranchProgram is a dispatch-dominated workload: two single-branch
// basic blocks ping-ponging forever. Every retired instruction is a block
// (or unit) dispatch, so the benchmark isolates the lookup/chaining cost
// the hot path pays before any instruction semantics run.
func benchBranchProgram() []uint32 {
	return []uint32{
		encBR(opBEQ, 15, 1), // @0: always taken -> @8
		encALU(opHLT, 15, 0, 0),
		encBR(opBEQ, 15, -3), // @8: always taken -> @0
	}
}

func benchDispatch(b *testing.B, bs string) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, bs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchBranchProgram())
	x := s.NewExec(m)
	b.ResetTimer()
	var n uint64
	for n < uint64(b.N) {
		chunk := uint64(b.N) - n
		if chunk > 65536 {
			chunk = 65536
		}
		n += x.Run(chunk)
	}
	b.StopTimer()
	if m.Halted {
		b.Fatal("dispatch loop halted early")
	}
}

// BenchmarkDispatchBlock measures per-block dispatch on the Block/Min
// interface: each block is one branch, so block lookup (and, post-chaining,
// the chain follow) dominates.
func BenchmarkDispatchBlock(b *testing.B) { benchDispatch(b, "block_min") }

// BenchmarkDispatchOne measures per-instruction translated dispatch on the
// One/Min interface over the same branch ping-pong.
func BenchmarkDispatchOne(b *testing.B) { benchDispatch(b, "one_min") }

// BenchmarkTransUnitSharedHit measures the first-level-miss path of unit
// translation: with a one-slot private table, two alternating PCs evict
// each other, so every lookup re-resolves through the shared cache. This is
// the path the transUnit double page walk sat on.
func BenchmarkTransUnitSharedHit(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, "one_min", Options{CacheCap: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchProgram())
	x := s.NewExec(m)
	pcs := [2]uint64{codeBase, codeBase + 4}
	for _, pc := range pcs {
		x.transUnit(pc) // warm the shared cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if x.transUnit(pcs[n&1]) == nil {
			b.Fatal("transUnit returned nil")
		}
	}
	b.StopTimer()
	if st := x.Stats(); st.UnitTranslations != 2 {
		b.Fatalf("%d translations, want 2: lookups missed the shared cache", st.UnitTranslations)
	}
}

// BenchmarkPublish measures one record publication at full informational
// detail (the per-instruction store cost of the paper's §V-E analysis).
func BenchmarkPublish(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, "one_all", Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchProgram())
	x := s.NewExec(m)
	var rec Record
	x.ExecOne(&rec)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.publish(&rec)
	}
}

func BenchmarkToyOneAll(b *testing.B)       { benchBuildset(b, "one_all", Options{}) }
func BenchmarkToyOneDecode(b *testing.B)    { benchBuildset(b, "one_decode", Options{}) }
func BenchmarkToyOneMin(b *testing.B)       { benchBuildset(b, "one_min", Options{}) }
func BenchmarkToyOneAllSpec(b *testing.B)   { benchBuildset(b, "one_all_spec", Options{}) }
func BenchmarkToyStepAll(b *testing.B)      { benchBuildset(b, "step_all", Options{}) }
func BenchmarkToyBlockMin(b *testing.B)     { benchBuildset(b, "block_min", Options{}) }
func BenchmarkToyBlockAll(b *testing.B)     { benchBuildset(b, "block_all", Options{}) }
func BenchmarkToyBlockMinSpec(b *testing.B) { benchBuildset(b, "block_min_spec", Options{}) }
func BenchmarkToyOneMinInterp(b *testing.B) {
	benchBuildset(b, "one_min", Options{NoTranslate: true})
}
