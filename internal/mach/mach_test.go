package mach

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMemoryRoundTripLittle(t *testing.T) {
	m := NewMemory(LittleEndian)
	for _, size := range []int{1, 2, 4, 8} {
		addr := uint64(0x10000 + size*64)
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if size == 8 {
			want = 0x1122334455667788
		}
		if f := m.Store(addr, want, size); f != FaultNone {
			t.Fatalf("store size %d: fault %v", size, f)
		}
		got, f := m.Load(addr, size)
		if f != FaultNone || got != want {
			t.Fatalf("size %d: got %#x fault %v, want %#x", size, got, f, want)
		}
	}
}

func TestMemoryEndianness(t *testing.T) {
	le := NewMemory(LittleEndian)
	be := NewMemory(BigEndian)
	le.Store(0x20000, 0x0102030405060708, 8)
	be.Store(0x20000, 0x0102030405060708, 8)
	lb := le.ReadBytes(0x20000, 8)
	bb := be.ReadBytes(0x20000, 8)
	if lb[0] != 0x08 || lb[7] != 0x01 {
		t.Errorf("little-endian layout wrong: % x", lb)
	}
	if bb[0] != 0x01 || bb[7] != 0x08 {
		t.Errorf("big-endian layout wrong: % x", bb)
	}
	// Byte-wise view must reassemble identically on reload.
	lv, _ := le.Load(0x20000, 8)
	bv, _ := be.Load(0x20000, 8)
	if lv != bv || lv != 0x0102030405060708 {
		t.Errorf("reload mismatch: %#x %#x", lv, bv)
	}
}

func TestMemoryNullPageFaults(t *testing.T) {
	m := NewMemory(LittleEndian)
	if _, f := m.Load(8, 4); f != FaultMemory {
		t.Errorf("null load fault = %v, want memory", f)
	}
	if f := m.Store(0, 1, 1); f != FaultMemory {
		t.Errorf("null store fault = %v, want memory", f)
	}
	if _, f := m.Load(4096, 4); f != FaultNone {
		t.Errorf("first legal address faulted: %v", f)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory(LittleEndian)
	addr := uint64(2*pageSize - 3) // 8-byte access crossing a page boundary
	want := uint64(0xdeadbeefcafef00d)
	m.Store(addr, want, 8)
	got, f := m.Load(addr, 8)
	if f != FaultNone || got != want {
		t.Fatalf("straddle: got %#x fault %v", got, f)
	}
	// Big-endian straddle too.
	b := NewMemory(BigEndian)
	b.Store(addr, want, 8)
	if got, _ := b.Load(addr, 8); got != want {
		t.Fatalf("big-endian straddle: got %#x", got)
	}
}

func TestMemoryGenCounterAdvancesOnStore(t *testing.T) {
	m := NewMemory(LittleEndian)
	addr := uint64(0x30000)
	g0 := m.Gen(addr)
	m.Store(addr, 1, 4)
	if m.Gen(addr) == g0 {
		t.Error("generation did not advance after store")
	}
	g1 := m.Gen(addr)
	m.Store(addr+pageSize, 1, 4) // different page
	if m.Gen(addr) != g1 {
		t.Error("store to other page changed this page's generation")
	}
}

func TestMemoryLoadStoreProperty(t *testing.T) {
	m := NewMemory(BigEndian)
	f := func(addrSeed uint32, val uint64, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		addr := uint64(addrSeed)%(1<<24) + 4096
		if ft := m.Store(addr, val, size); ft != FaultNone {
			return false
		}
		got, ft := m.Load(addr, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return ft == FaultNone && got == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriteReadBytes(t *testing.T) {
	m := NewMemory(LittleEndian)
	data := []byte("hello, simulated world")
	m.WriteBytes(pageSize-4, data) // straddles pages
	got := m.ReadBytes(pageSize-4, len(data))
	if string(got) != string(data) {
		t.Errorf("round trip: %q", got)
	}
}

func testDefs() []SpaceDef {
	return []SpaceDef{
		{Name: "r", Count: 32, Width: 64, ZeroReg: 31},
		{Name: "c", Count: 4, Width: 64, ZeroReg: -1},
	}
}

func TestZeroRegister(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	m.WriteReg(r, 31, 0x1234)
	if got := r.Read(31); got != 0 {
		t.Errorf("zero register read %#x", got)
	}
	r.Write(31, 5)
	if r.Vals[31] != 0 {
		t.Errorf("zero register storage mutated")
	}
	m.WriteReg(r, 3, 42)
	if r.Read(3) != 42 {
		t.Errorf("r3 = %d", r.Read(3))
	}
}

func TestJournalRollbackRestoresEverything(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	m.PC = 0x1000
	r.Vals[1] = 11
	m.Mem.Store(0x40000, 0xaa, 1)

	m.JournalOn = true
	mark := m.Journal.Mark()
	m.WriteReg(r, 1, 99)
	m.StoreValue(0x40000, 0xbb, 1)
	m.SetPC(0x2000)
	if r.Read(1) != 99 || m.PC != 0x2000 {
		t.Fatal("writes did not take effect")
	}
	m.Journal.Rollback(m, mark)
	if r.Read(1) != 11 {
		t.Errorf("r1 after rollback = %d", r.Read(1))
	}
	if v, _ := m.Mem.Load(0x40000, 1); v != 0xaa {
		t.Errorf("mem after rollback = %#x", v)
	}
	if m.PC != 0x1000 {
		t.Errorf("pc after rollback = %#x", m.PC)
	}
}

func TestJournalCommitRebase(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	m.JournalOn = true
	r.Vals[2] = 1
	m.WriteReg(r, 2, 2) // entry 0
	mid := m.Journal.Mark()
	m.WriteReg(r, 2, 3) // entry 1
	m.Journal.Commit(mid)
	if m.Journal.Len() != 1 {
		t.Fatalf("journal len after commit = %d", m.Journal.Len())
	}
	// Rolling back to the (rebased) start undoes only the uncommitted write.
	m.Journal.Rollback(m, 0)
	if r.Read(2) != 2 {
		t.Errorf("r2 = %d, want 2 (committed value)", r.Read(2))
	}
}

// TestJournalCommitThenRollbackSuffix drives the Commit/Rollback interplay
// the speculative engine depends on: after committing a prefix of the
// journal and rebasing the surviving marks, a rollback must restore exactly
// the uncommitted suffix — registers, memory, and PC all return to their
// values at the rebased mark, while the committed writes stay permanent.
func TestJournalCommitThenRollbackSuffix(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	c := m.MustSpace("c")
	m.JournalOn = true
	m.PC = 0x1000
	r.Vals[1] = 10
	c.Vals[0] = 1
	m.Mem.Store(0x40000, 0x11, 1)
	m.Mem.Store(0x40008, 0x22, 1)

	// Committed prefix: a register write, a memory write, and a PC move.
	base := m.Journal.Mark()
	m.WriteReg(r, 1, 20)
	m.StoreValue(0x40000, 0x33, 1)
	m.SetPC(0x1004)

	// Mark taken mid-stream, before the writes that will stay speculative.
	spec := m.Journal.Mark()
	m.WriteReg(r, 1, 30)
	m.WriteReg(c, 0, 2)
	m.StoreValue(0x40000, 0x44, 1)
	m.StoreValue(0x40008, 0x55, 1)
	m.SetPC(0x1008)

	// Retire the prefix: Commit(spec) makes entries [base, spec) permanent,
	// and every surviving mark rebases by subtracting the committed mark.
	m.Journal.Commit(spec)
	rebased := Mark(int(spec) - int(spec))
	if int(spec)-int(base) != 3 {
		t.Fatalf("prefix journaled %d entries, want 3 (reg, mem, pc)", int(spec)-int(base))
	}
	if m.Journal.Len() != 5 {
		t.Fatalf("journal len after commit = %d, want the 5 suffix entries", m.Journal.Len())
	}

	m.Journal.Rollback(m, rebased)

	// The speculative suffix is gone...
	if got := r.Read(1); got != 20 {
		t.Errorf("r1 = %d, want 20 (committed value, suffix undone)", got)
	}
	if got := c.Read(0); got != 1 {
		t.Errorf("c0 = %d, want 1", got)
	}
	if v, _ := m.Mem.Load(0x40000, 1); v != 0x33 {
		t.Errorf("mem[0x40000] = %#x, want 0x33 (committed store)", v)
	}
	if v, _ := m.Mem.Load(0x40008, 1); v != 0x22 {
		t.Errorf("mem[0x40008] = %#x, want 0x22 (original value)", v)
	}
	if m.PC != 0x1004 {
		t.Errorf("pc = %#x, want 0x1004 (committed move)", m.PC)
	}
	// ...and the journal is empty: nothing committed can roll back further.
	if m.Journal.Len() != 0 {
		t.Errorf("journal len after rollback = %d", m.Journal.Len())
	}
	m.Journal.Rollback(m, 0) // must be a no-op
	if got := r.Read(1); got != 20 || m.PC != 0x1004 {
		t.Error("rollback of empty journal disturbed committed state")
	}
}

func TestSpaceLookupError(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	s, err := m.Space("r")
	if err != nil || s == nil {
		t.Fatalf("Space(r) = %v, %v", s, err)
	}
	_, err = m.Space("nope")
	var use *UnknownSpaceError
	if !errors.As(err, &use) || use.Name != "nope" {
		t.Fatalf("Space(nope) error = %v, want *UnknownSpaceError{nope}", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSpace on unknown name did not panic")
		}
	}()
	m.MustSpace("nope")
}

func TestJournalNestedMarks(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	m.JournalOn = true
	outer := m.Journal.Mark()
	m.WriteReg(r, 4, 10)
	inner := m.Journal.Mark()
	m.WriteReg(r, 4, 20)
	m.Journal.Rollback(m, inner)
	if r.Read(4) != 10 {
		t.Fatalf("inner rollback: r4 = %d", r.Read(4))
	}
	m.Journal.Rollback(m, outer)
	if r.Read(4) != 0 {
		t.Fatalf("outer rollback: r4 = %d", r.Read(4))
	}
}

func TestSnapshotRestoreAndEqual(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	r.Vals[5] = 55
	m.PC = 0x500
	sn := m.Snapshot()
	r.Vals[5] = 66
	m.PC = 0x600
	sn2 := m.Snapshot()
	if ok, _ := sn.Equal(sn2, []string{"r", "c"}); ok {
		t.Error("distinct states compared equal")
	}
	m.Restore(sn)
	if m.PC != 0x500 || r.Vals[5] != 55 {
		t.Error("restore failed")
	}
	if ok, diff := sn.Equal(m.Snapshot(), []string{"r", "c"}); !ok {
		t.Errorf("restored state differs: %s", diff)
	}
}

func TestLoadHookOverride(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	m.Mem.Store(0x50000, 7, 8)
	m.LoadHook = func(addr uint64, size int, val uint64) uint64 { return val + 100 }
	v, f := m.LoadValue(0x50000, 8)
	if f != FaultNone || v != 107 {
		t.Errorf("hooked load = %d fault %v", v, f)
	}
	m.LoadHook = nil
	v, _ = m.LoadValue(0x50000, 8)
	if v != 7 {
		t.Errorf("unhooked load = %d", v)
	}
}

func TestHalt(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	m.Halt(3)
	if !m.Halted || m.ExitCode != 3 {
		t.Errorf("halt state: %v %d", m.Halted, m.ExitCode)
	}
}

func TestFaultStrings(t *testing.T) {
	for f, want := range map[Fault]string{
		FaultNone: "none", FaultMemory: "memory", FaultIllegal: "illegal",
		FaultHalt: "halt", FaultBreak: "break", Fault(99): "fault(99)",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
}

// TestJournalCommitAfterPartialRollback interleaves the two journal
// truncation operations the way the speculative engine does: speculate,
// roll part of it back, then commit a prefix of what survived. The
// surviving suffix must still roll back exactly, proving the committed
// mark is consistent with journal state.
func TestJournalCommitAfterPartialRollback(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	m.JournalOn = true
	r.Vals[1] = 1

	m.WriteReg(r, 1, 2) // entry 0: will be committed
	mid := m.Journal.Mark()
	m.WriteReg(r, 1, 3) // entry 1: survives the partial rollback
	spec := m.Journal.Mark()
	m.WriteReg(r, 1, 4) // entry 2: rolled back first
	m.StoreValue(0x40000, 0x99, 1)

	m.Journal.Rollback(m, spec)
	if got := r.Read(1); got != 3 {
		t.Fatalf("r1 after partial rollback = %d, want 3", got)
	}
	if m.Journal.Len() != 2 {
		t.Fatalf("journal len after partial rollback = %d, want 2", m.Journal.Len())
	}

	// Commit the prefix below mid; the surviving mark rebases to zero.
	m.Journal.Commit(mid)
	if m.Journal.Len() != 1 {
		t.Fatalf("journal len after commit = %d, want 1", m.Journal.Len())
	}
	m.Journal.Rollback(m, 0)
	if got := r.Read(1); got != 2 {
		t.Errorf("r1 after final rollback = %d, want 2 (committed value)", got)
	}
	if v, _ := m.Mem.Load(0x40000, 1); v != 0 {
		t.Errorf("mem[0x40000] = %#x, want 0 (speculative store undone)", v)
	}
}

// TestJournalResetKeepsBackingArray: Reset keeps the journal's backing
// array whatever its size, so a machine reset between speculative runs
// journals a burst as large as the last one without allocating, and the
// journal still rolls back after a Reset.
func TestJournalResetKeepsBackingArray(t *testing.T) {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	r := m.MustSpace("r")
	m.JournalOn = true

	const burst = 1<<15 + 1
	for i := 0; i < burst; i++ {
		m.WriteReg(r, 1, uint64(i))
	}
	peak := cap(m.Journal.entries)
	m.Journal.Reset()
	if m.Journal.Len() != 0 {
		t.Fatalf("journal len after Reset = %d, want 0", m.Journal.Len())
	}
	if c := cap(m.Journal.entries); c != peak {
		t.Fatalf("Reset changed capacity from %d to %d", peak, c)
	}

	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < burst; i++ {
			m.WriteReg(r, 1, uint64(i))
		}
		m.Journal.Reset()
	})
	if allocs != 0 {
		t.Errorf("a burst of %d entries after Reset allocated %v times, want 0", burst, allocs)
	}

	mark := m.Journal.Mark()
	m.WriteReg(r, 1, 7)
	m.WriteReg(r, 1, 8)
	m.Journal.Rollback(m, mark)
	if got := r.Read(1); got != burst-1 {
		t.Errorf("r1 after rollback = %d, want %d", got, burst-1)
	}
}
