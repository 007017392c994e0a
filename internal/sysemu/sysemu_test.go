package sysemu

import (
	"testing"

	"singlespec/internal/isa/isatest"
)

func TestSyscalls(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	e := New(i.Conv)
	m := i.Spec.NewMachine()
	e.Install(m)
	r := m.MustSpace("r")
	if got := r.Read(i.Conv.Stack); got != i.Conv.StackTop {
		t.Fatalf("stack pointer = %#x", got)
	}

	// write
	m.Mem.WriteBytes(0x5000, []byte("hello"))
	r.Write(i.Conv.SyscallNum, SysWrite)
	r.Write(i.Conv.Args[0], 1)
	r.Write(i.Conv.Args[1], 0x5000)
	r.Write(i.Conv.Args[2], 5)
	e.Handle(m)
	if e.Stdout.String() != "hello" || r.Read(i.Conv.Ret) != 5 {
		t.Errorf("write: %q ret=%d", e.Stdout.String(), r.Read(i.Conv.Ret))
	}

	// read
	e.Stdin = []byte("abc")
	r.Write(i.Conv.SyscallNum, SysRead)
	r.Write(i.Conv.Args[1], 0x6000)
	r.Write(i.Conv.Args[2], 10)
	e.Handle(m)
	if got := string(m.Mem.ReadBytes(0x6000, 3)); got != "abc" || r.Read(i.Conv.Ret) != 3 {
		t.Errorf("read: %q", got)
	}

	// brk
	r.Write(i.Conv.SyscallNum, SysBrk)
	r.Write(i.Conv.Args[0], 0)
	e.Handle(m)
	if r.Read(i.Conv.Ret) != i.Conv.HeapBase {
		t.Errorf("brk query = %#x", r.Read(i.Conv.Ret))
	}
	r.Write(i.Conv.SyscallNum, SysBrk)
	r.Write(i.Conv.Args[0], i.Conv.HeapBase+0x1000)
	e.Handle(m)
	r.Write(i.Conv.SyscallNum, SysBrk)
	r.Write(i.Conv.Args[0], 0)
	e.Handle(m)
	if r.Read(i.Conv.Ret) != i.Conv.HeapBase+0x1000 {
		t.Errorf("brk move = %#x", r.Read(i.Conv.Ret))
	}

	// time is deterministic and monotonic
	r.Write(i.Conv.SyscallNum, SysTime)
	e.Handle(m)
	t1 := r.Read(i.Conv.Ret)
	r.Write(i.Conv.SyscallNum, SysTime)
	e.Handle(m)
	if t2 := r.Read(i.Conv.Ret); t2 != t1+1 {
		t.Errorf("time: %d then %d", t1, t2)
	}

	// unknown
	r.Write(i.Conv.SyscallNum, 999)
	e.Handle(m)
	if r.Read(i.Conv.Ret) != ^uint64(0) {
		t.Error("unknown syscall should return -1")
	}

	// exit
	r.Write(i.Conv.SyscallNum, SysExit)
	r.Write(i.Conv.Args[0], 42)
	e.Handle(m)
	if !m.Halted || m.ExitCode != 42 {
		t.Errorf("exit: %v %d", m.Halted, m.ExitCode)
	}
	if e.Calls[SysWrite] != 1 || e.Calls[SysExit] != 1 {
		t.Errorf("call counts: %v", e.Calls)
	}
}

// TestFaultCounters drives each denial and short-I/O path through
// FaultHook and checks the Denials/Shorts counters the obs layer exports.
func TestFaultCounters(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	e := New(i.Conv)
	m := i.Spec.NewMachine()
	e.Install(m)
	r := m.MustSpace("r")
	fault := SysFaultNone
	e.FaultHook = func(int) SyscallFault { return fault }
	// The return value may land in the same register as the call number, so
	// every call re-seeds the registers.
	call := func(num int, args ...uint64) {
		r.Write(i.Conv.SyscallNum, uint64(num))
		for idx, a := range args {
			r.Write(i.Conv.Args[idx], a)
		}
		e.Handle(m)
	}

	// Denied write.
	m.Mem.WriteBytes(0x5000, []byte("hello"))
	fault = SysFaultDeny
	call(SysWrite, 1, 0x5000, 5)
	if e.Denials != 1 || e.Stdout.Len() != 0 {
		t.Errorf("denied write: denials=%d stdout=%q", e.Denials, e.Stdout.String())
	}

	// Short write transfers half.
	fault = SysFaultShort
	call(SysWrite, 1, 0x5000, 5)
	if e.Shorts != 1 || e.Stdout.String() != "he" {
		t.Errorf("short write: shorts=%d stdout=%q", e.Shorts, e.Stdout.String())
	}

	// Denied read, then short read.
	e.Stdin = []byte("abcdef")
	fault = SysFaultDeny
	call(SysRead, 0, 0x6000, 6)
	fault = SysFaultShort
	call(SysRead, 0, 0x6000, 6)
	if e.Denials != 2 || e.Shorts != 2 || r.Read(i.Conv.Ret) != 3 {
		t.Errorf("read faults: denials=%d shorts=%d ret=%d", e.Denials, e.Shorts, r.Read(i.Conv.Ret))
	}

	// Refused brk counts as a denial; a query (want=0) does not.
	fault = SysFaultDeny
	call(SysBrk, i.Conv.HeapBase+0x1000)
	if e.Denials != 3 || r.Read(i.Conv.Ret) != i.Conv.HeapBase {
		t.Errorf("refused brk: denials=%d brk=%#x", e.Denials, r.Read(i.Conv.Ret))
	}
	call(SysBrk, 0)
	if e.Denials != 3 {
		t.Errorf("brk query counted as denial: %d", e.Denials)
	}

	// Unknown call numbers are denials too.
	fault = SysFaultNone
	call(999)
	if e.Denials != 4 {
		t.Errorf("unknown call: denials=%d", e.Denials)
	}
}

func TestCallName(t *testing.T) {
	cases := map[int]string{
		SysExit: "exit", SysWrite: "write", SysRead: "read",
		SysBrk: "brk", SysTime: "time", 999: "unknown", 0: "unknown",
	}
	for num, want := range cases {
		if got := CallName(num); got != want {
			t.Errorf("CallName(%d) = %q, want %q", num, got, want)
		}
	}
}

func TestWriteBoundsCheck(t *testing.T) {
	i := isatest.Load(t, "arm32")
	e := New(i.Conv)
	m := i.Spec.NewMachine()
	e.Install(m)
	r := m.MustSpace("r")
	r.Write(i.Conv.SyscallNum, SysWrite)
	r.Write(i.Conv.Args[1], 0x5000)
	r.Write(i.Conv.Args[2], 1<<30) // implausible length
	e.Handle(m)
	if r.Read(i.Conv.Ret) != ^uint64(0) {
		t.Error("oversized write accepted")
	}
}
