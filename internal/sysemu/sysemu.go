// Package sysemu emulates the operating-system services the simulated
// user-mode programs rely on. Per the paper (§V-A), OS entry happens by
// overriding the semantics of the ISA's system-call instruction; the LIS
// descriptions route that instruction's execute action to the machine's
// Syscall hook, which this package implements.
//
// Everything is deterministic: time is a counter, reads come from a
// preloaded buffer, and output is captured in memory.
package sysemu

import (
	"bytes"

	"singlespec/internal/isa"
	"singlespec/internal/mach"
)

// System-call numbers shared by all three ISAs (the number lives in the
// ISA-specific register named by the convention).
const (
	SysExit  = 1
	SysWrite = 2
	SysRead  = 3
	SysBrk   = 4
	SysTime  = 5
)

// SyscallFault selects a failure the emulator injects into one system
// call. The zero value injects nothing.
type SyscallFault int

const (
	// SysFaultNone leaves the call untouched.
	SysFaultNone SyscallFault = iota
	// SysFaultShort halves the byte count a read or write transfers —
	// the classic short-I/O result robust programs must retry.
	SysFaultShort
	// SysFaultDeny fails the call outright: read/write return the error
	// value, brk refuses to move (heap exhaustion).
	SysFaultDeny
)

// Emulator is the deterministic OS emulation state for one machine.
type Emulator struct {
	Conv isa.Convention
	// Stdout captures all bytes written by the program.
	Stdout bytes.Buffer
	// Stdin provides the bytes returned by reads.
	Stdin []byte

	// FaultHook, when non-nil, is consulted once per system call (with the
	// call number) and the returned fault is applied to that call only.
	// This is the seam fault-injection campaigns drive; it never affects
	// SysExit or SysTime, so fault schedules cannot lose an exit. Leave nil
	// in production use.
	FaultHook func(num int) SyscallFault

	brk   uint64
	ticks uint64
	// Calls counts invocations per syscall number (for tests/stats).
	Calls map[int]uint64
	// Denials counts calls completed with the error return: injected
	// denials, oversized writes, and unknown call numbers. Shorts counts
	// short-I/O faults applied to a read or write. Both feed the obs
	// layer's sysemu counters.
	Denials uint64
	Shorts  uint64
}

// CallName returns the symbolic name of a syscall number ("exit",
// "write", ...), or "unknown" for numbers outside the emulated set. The
// obs layer uses it to label per-call counters.
func CallName(num int) string {
	switch num {
	case SysExit:
		return "exit"
	case SysWrite:
		return "write"
	case SysRead:
		return "read"
	case SysBrk:
		return "brk"
	case SysTime:
		return "time"
	}
	return "unknown"
}

// New returns an emulator for the given convention.
func New(conv isa.Convention) *Emulator {
	return &Emulator{Conv: conv, brk: conv.HeapBase, Calls: make(map[int]uint64)}
}

// Install hooks the emulator into a machine and initializes the stack
// pointer.
func (e *Emulator) Install(m *mach.Machine) {
	m.Syscall = e.Handle
	r := m.Spaces[0]
	r.Write(e.Conv.Stack, e.Conv.StackTop)
}

func (e *Emulator) reg(m *mach.Machine, idx int) uint64 { return m.Spaces[0].Read(idx) }

// Handle dispatches one system call on machine m.
func (e *Emulator) Handle(m *mach.Machine) {
	num := int(e.reg(m, e.Conv.SyscallNum))
	e.Calls[num]++
	fault := SysFaultNone
	if e.FaultHook != nil {
		fault = e.FaultHook(num)
	}
	ret := uint64(0)
	switch num {
	case SysExit:
		m.Halt(int(e.reg(m, e.Conv.Args[0])))
		return
	case SysWrite:
		// write(fd, buf, len): fd ignored, output captured.
		buf := e.reg(m, e.Conv.Args[1])
		n := e.reg(m, e.Conv.Args[2])
		if n > 1<<20 || fault == SysFaultDeny {
			e.Denials++
			ret = ^uint64(0)
			break
		}
		if fault == SysFaultShort {
			e.Shorts++
			n /= 2
		}
		e.Stdout.Write(m.Mem.ReadBytes(buf, int(n)))
		ret = n
	case SysRead:
		buf := e.reg(m, e.Conv.Args[1])
		n := int(e.reg(m, e.Conv.Args[2]))
		if fault == SysFaultDeny {
			e.Denials++
			ret = ^uint64(0)
			break
		}
		if fault == SysFaultShort {
			e.Shorts++
			n /= 2
		}
		if n > len(e.Stdin) {
			n = len(e.Stdin)
		}
		if n > 0 {
			m.Mem.WriteBytes(buf, e.Stdin[:n])
			e.Stdin = e.Stdin[n:]
		}
		ret = uint64(n)
	case SysBrk:
		want := e.reg(m, e.Conv.Args[0])
		// Any injected fault turns the call into a refusal: the break
		// stays where it was (the caller sees exhaustion).
		if want != 0 && fault == SysFaultNone {
			e.brk = want
		} else if want != 0 {
			e.Denials++
		}
		ret = e.brk
	case SysTime:
		e.ticks++
		ret = e.ticks
	default:
		e.Denials++
		ret = ^uint64(0)
	}
	m.WriteReg(m.Spaces[0], e.Conv.Ret, ret)
}
