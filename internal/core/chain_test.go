package core

import (
	"reflect"
	"slices"
	"testing"

	"singlespec/internal/mach"
)

// Tests for block->block chaining: link creation and following, severing on
// self-modifying code, relinking under invalidation storms, and the
// zero-allocation guarantee of the steady-state dispatch paths.

// chainLoopProgram decrements r9 once per iteration through two basic
// blocks — [SUB, BEQ-exit] and [BEQ-back] — so both chain edges (taken
// back-branch and not-taken fall-through) are exercised every iteration.
func chainLoopProgram() []uint32 {
	return []uint32{
		encALU(opSUB, 9, 11, 9), // @0:  r9 -= 1
		encBR(opBEQ, 9, 2),      // @4:  r9 == 0 -> @16 (exit)
		encBR(opBEQ, 15, -3),    // @8:  always -> @0
		encALU(opHLT, 15, 0, 0), // @12: never reached
		encALU(opHLT, 15, 0, 0), // @16: halt(0)
	}
}

func TestChainFollowLoop(t *testing.T) {
	const iters = 1000
	s := synth(t, "block_min", Options{})
	m := loadProgram(toySpec(t), chainLoopProgram())
	r := m.MustSpace("r")
	r.Vals[11] = 1
	r.Vals[9] = iters
	x := s.NewExec(m)
	x.Run(1 << 20)
	if !m.Halted {
		t.Fatal("loop did not halt")
	}
	if r.Vals[9] != 0 {
		t.Fatalf("r9 = %d after loop, want 0", r.Vals[9])
	}
	st := x.Stats()
	if st.BlockChainLinks < 2 {
		t.Errorf("BlockChainLinks = %d, want >= 2 (both loop edges)", st.BlockChainLinks)
	}
	// Every dispatch after the first traversal of each edge is a follow,
	// except the loop-exit retranslation at the end.
	if st.BlockChainFollows < 2*(iters-2) {
		t.Errorf("BlockChainFollows = %d, want >= %d", st.BlockChainFollows, 2*(iters-2))
	}
	t.Logf("links=%d follows=%d l1hits=%d", st.BlockChainLinks, st.BlockChainFollows, st.BlockL1Hits)
}

// pingPongFar places one single-branch block on each of two different
// 64 KiB pages, branching at each other forever.
func pingPongFar(t *testing.T) (*mach.Machine, *Sim) {
	t.Helper()
	s := synth(t, "block_min", Options{})
	m := toySpec(t).NewMachine()
	const a, b = 0x10000, 0x20000
	m.Mem.Store(a, uint64(encBR(opBEQ, 15, (b-a-4)>>2)), 4)
	m.Mem.Store(b, uint64(encBR(opBEQ, 15, -((b-a+4)>>2))), 4)
	m.PC = a
	return m, s
}

// TestChainSeveredBySMC is the self-modifying-code safety test: once block
// A chains to block B, a store to B's page must sever the link before the
// next dispatch, and the rewritten code must execute.
func TestChainSeveredBySMC(t *testing.T) {
	m, s := pingPongFar(t)
	x := s.NewExec(m)
	var batch Batch
	for i := 0; i < 6; i++ {
		if !x.ExecBlock(&batch) {
			t.Fatal("ping-pong halted early")
		}
	}
	if x.Stats().BlockChainFollows == 0 {
		t.Fatal("warmup produced no chain follows")
	}
	// PC is back at A. Rewrite B's branch as a halt: the store bumps B's
	// page generation and the code-store epoch.
	m.Mem.Store(0x20000, uint64(encALU(opHLT, 15, 0, 0)), 4)
	if !x.ExecBlock(&batch) { // A executes (its page is untouched), jumps to B
		t.Fatal("block A halted unexpectedly")
	}
	follows := x.Stats().BlockChainFollows
	ok := x.ExecBlock(&batch) // must re-translate B, not follow the stale link
	if got := x.Stats().BlockChainFollows; got != follows {
		t.Fatalf("dispatch after code store followed a chain link (follows %d -> %d)", follows, got)
	}
	if ok || !m.Halted {
		t.Fatal("rewritten instruction did not execute: store to a chained block's page was not honoured")
	}
	if batch.Fault != mach.FaultHalt {
		t.Fatalf("batch fault = %v, want FaultHalt", batch.Fault)
	}
}

// TestChainRelinkStorm: a code-page store between every two blocks severs
// each link before it can be followed. Execution must stay correct, links
// must keep being recreated, and none may be followed.
func TestChainRelinkStorm(t *testing.T) {
	m, s := pingPongFar(t)
	x := s.NewExec(m)
	var batch Batch
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if !x.ExecBlock(&batch) {
			t.Fatal("halted early")
		}
		// Store to A's code page (away from the instruction): bits are
		// unchanged, so translation revalidates, but every epoch-guarded
		// chain link dies.
		m.Mem.Store(0x10000+128, uint64(i), 4)
	}
	if m.PC != 0x10000 {
		t.Fatalf("PC = %#x after %d blocks, want %#x", m.PC, rounds, 0x10000)
	}
	st := x.Stats()
	if st.BlockChainFollows != 0 {
		t.Errorf("BlockChainFollows = %d under per-block invalidation, want 0", st.BlockChainFollows)
	}
	if st.BlockChainLinks < rounds-2 {
		t.Errorf("BlockChainLinks = %d, want >= %d (relink every round)", st.BlockChainLinks, rounds-2)
	}
}

// TestSteadyStateZeroAlloc pins the no-allocation property of the hot
// paths: warm block dispatch and warm per-instruction dispatch must run
// without allocating.
func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("ExecBlock", func(t *testing.T) {
		m, s := pingPongFar(t)
		x := s.NewExec(m)
		var batch Batch
		for i := 0; i < 8; i++ {
			x.ExecBlock(&batch)
		}
		if avg := testing.AllocsPerRun(100, func() {
			for i := 0; i < 16; i++ {
				x.ExecBlock(&batch)
			}
		}); avg != 0 {
			t.Errorf("warm ExecBlock allocates: %.2f allocs per 16 blocks", avg)
		}
	})
	t.Run("ExecOne", func(t *testing.T) {
		s := synth(t, "one_min", Options{})
		m := loadProgram(toySpec(t), benchBranchProgram())
		x := s.NewExec(m)
		var rec Record
		for i := 0; i < 8; i++ {
			x.ExecOne(&rec)
		}
		if avg := testing.AllocsPerRun(100, func() {
			for i := 0; i < 16; i++ {
				x.ExecOne(&rec)
			}
		}); avg != 0 {
			t.Errorf("warm ExecOne allocates: %.2f allocs per 16 instrs", avg)
		}
	})
}

// manyBlocksProgram loops r9 times through n blocks of two instructions,
// each adding r11 to r1 and branching to the next, then a loop tail of
// three more blocks: n+3 blocks in all.
func manyBlocksProgram(n int) []uint32 {
	var p []uint32
	for k := 0; k < n; k++ {
		p = append(p, encALU(opADD, 1, 11, 1), encBR(opBEQ, 15, 0))
	}
	back := -int32(len(p) + 3) // from the back-branch at len(p)+2 to @0
	return append(p,
		encALU(opSUB, 9, 11, 9), // r9 -= 1
		encBR(opBEQ, 9, 1),      // r9 == 0 -> halt
		encBR(opBEQ, 15, back),  // always -> @0
		encALU(opHLT, 15, 0, 0))
}

// TestChainSurvivesTableGrowth: a program with more blocks than a new
// block table has slots makes the table double mid-run. Growth drops the
// chain links, which name slot indices; the blocks must relink and be
// followed afterwards, and the run must publish the records and reach the
// state the One interface does on the same program.
func TestChainSurvivesTableGrowth(t *testing.T) {
	const nBlocks, iters = 40, 50
	prog := manyBlocksProgram(nBlocks)
	load := func(bs string) (*Exec, *mach.Machine) {
		s := synth(t, bs, Options{})
		m := loadProgram(s.Spec, prog)
		r := m.MustSpace("r")
		r.Vals[9], r.Vals[11] = iters, 1
		return s.NewExec(m), m
	}
	keep := func(out []Record, rec *Record) []Record {
		c := *rec
		c.Vals = slices.Clone(rec.Vals)
		return append(out, c)
	}

	x, m := load("block_all")
	var blockRecs []Record
	var batch Batch
	grows, size, followsAtGrowth := 0, 0, uint64(0)
	for !m.Halted {
		ok := x.ExecBlock(&batch)
		for k := range batch.Recs {
			blockRecs = keep(blockRecs, &batch.Recs[k])
		}
		if n := len(x.btab.slots); n != size {
			if size != 0 {
				grows++
			}
			size, followsAtGrowth = n, x.Stats().BlockChainFollows
		}
		if !ok {
			break
		}
	}
	if grows == 0 {
		t.Fatalf("the block table never grew past %d slots over %d blocks", size, nBlocks+3)
	}
	if f := x.Stats().BlockChainFollows; f <= followsAtGrowth {
		t.Errorf("%d chain follows in all, %d before the last growth: none after it", f, followsAtGrowth)
	}

	x1, m1 := load("one_all")
	var oneRecs []Record
	var rec Record
	for !m1.Halted {
		ok := x1.ExecOne(&rec)
		oneRecs = keep(oneRecs, &rec)
		if !ok {
			break
		}
	}
	if !reflect.DeepEqual(blockRecs, oneRecs) {
		t.Errorf("block_all published %d records, one_all %d, and they differ", len(blockRecs), len(oneRecs))
	}
	if m.PC != m1.PC || m.Instret != m1.Instret || m.ExitCode != m1.ExitCode ||
		!reflect.DeepEqual(m.MustSpace("r").Vals, m1.MustSpace("r").Vals) {
		t.Errorf("final state differs: block pc %#x instret %d exit %d, one pc %#x instret %d exit %d",
			m.PC, m.Instret, m.ExitCode, m1.PC, m1.Instret, m1.ExitCode)
	}
	if got := m.MustSpace("r").Vals[1]; got != nBlocks*iters {
		t.Errorf("r1 = %d, want %d", got, nBlocks*iters)
	}
}
