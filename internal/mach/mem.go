// Package mach provides the machine substrate shared by all synthesized
// functional simulators: sparse byte-addressable memory, architectural
// register spaces, faults, the speculation undo journal, and the Machine
// type that ties one hardware context together.
//
// The substrate is deliberately independent of any ISA: endianness, register
// space shapes, and calling conventions are all configured by the ISA layer.
//
// # Concurrency contract
//
// The mutable machine state — Memory, Space, Machine, Journal — is NOT safe
// for concurrent use. Even a plain Load mutates Memory (the one-entry page
// lookup cache, lazy page allocation), so read-only sharing is not an
// option either: a Memory and everything attached to it belong to exactly
// one goroutine at a time.
//
// Parallel simulation therefore isolates per worker by construction: each
// worker owns its own Machine (with its own Memory, Spaces, and Journal)
// and its own core.Exec and sysemu.Emulator. What IS safe to share across
// workers is everything upstream of the machine: a loaded isa.ISA, its
// lis.Spec, an asm.Program, and a synthesized core.Sim (whose shared
// translation cache is internally synchronized). This contract is exercised
// under the race detector by TestSharedSimParallelDeterminism in
// internal/expt.
package mach

import (
	"fmt"
	"sort"
)

// ByteOrder selects the memory byte order of a simulated machine.
type ByteOrder int

const (
	// LittleEndian stores the least-significant byte at the lowest address.
	LittleEndian ByteOrder = iota
	// BigEndian stores the most-significant byte at the lowest address.
	BigEndian
)

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big"
	}
	return "little"
}

const (
	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page struct {
	data [pageSize]byte
	// gen counts stores into this page. Translated code caches record the
	// generation of the pages their code came from and re-translate when it
	// changes (self-modifying code / program reload).
	gen uint64
	// code marks a page that translated code has been fetched from (see
	// MarkCode). Stores into code-marked pages additionally advance the
	// memory-wide code-store epoch, which block chaining uses to validate
	// chain links without walking per-page generations.
	code bool
}

// Memory is a sparse, paged, byte-addressable memory. The zero page
// (addresses below 4096) is never mapped so that null-pointer dereferences
// in simulated programs fault instead of silently reading zeros.
//
// Memory is shared between the hardware contexts (Machines) of a simulated
// multicore; it is not safe for concurrent use from multiple goroutines
// without external synchronization (see the package-level concurrency
// contract — even Load mutates the lookup cache below).
type Memory struct {
	order ByteOrder
	pages map[uint64]*page
	// One-entry lookup cache: the vast majority of accesses hit the same
	// page as the previous access.
	lastIdx  uint64
	lastPage *page
	haveLast bool
	// codeGen is the memory-wide code-store epoch: it advances on every
	// store that touches a code-marked page (and never otherwise). A cached
	// artifact validated while codeGen == E stays valid for as long as
	// codeGen == E, because no byte any translation was built from can have
	// changed in between. This gives the dispatch hot path a single O(1)
	// load-and-compare in place of per-page generation walks.
	codeGen uint64
}

// NewMemory returns an empty memory with the given byte order.
func NewMemory(order ByteOrder) *Memory {
	return &Memory{order: order, pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64) *page {
	idx := addr >> pageShift
	if m.haveLast && m.lastIdx == idx {
		return m.lastPage
	}
	p := m.pages[idx]
	if p == nil {
		p = &page{}
		m.pages[idx] = p
	}
	m.lastIdx, m.lastPage, m.haveLast = idx, p, true
	return p
}

// Gen returns the store-generation counter of the page containing addr.
func (m *Memory) Gen(addr uint64) uint64 { return m.pageFor(addr).gen }

// CodeGen returns the memory-wide code-store epoch (see the codeGen field).
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// MarkCode flags the page containing addr as holding translated code.
// Translators call it for every page they fetch instruction bytes from;
// from then on stores into the page advance the code-store epoch so cached
// dispatch state (chain links, epoch-validated cache slots) revalidates.
// Marking is monotonic and idempotent; data-only pages never pay for it.
func (m *Memory) MarkCode(addr uint64) { m.pageFor(addr).code = true }

// LoadGen is Load and Gen in one page walk: it reads size bytes at addr and
// also returns the store-generation counter of the page containing addr.
// Translation misses use it to fetch instruction bytes and capture the
// generation they validate against without paying pageFor twice.
func (m *Memory) LoadGen(addr uint64, size int) (uint64, uint64, Fault) {
	if addr < 4096 {
		return 0, 0, FaultMemory
	}
	p := m.pageFor(addr)
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		return m.get(p.data[off:off+uint64(size)], size), p.gen, FaultNone
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		buf[i] = m.pageFor(a).data[a&pageMask]
	}
	return m.get(buf[:size], size), p.gen, FaultNone
}

// Load reads size bytes (1, 2, 4, or 8) at addr and returns them
// zero-extended to 64 bits. Accesses to the null page fault.
func (m *Memory) Load(addr uint64, size int) (uint64, Fault) {
	if addr < 4096 {
		return 0, FaultMemory
	}
	p := m.pageFor(addr)
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		return m.get(p.data[off:off+uint64(size)], size), FaultNone
	}
	// Access straddles a page boundary: assemble byte by byte.
	var buf [8]byte
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		buf[i] = m.pageFor(a).data[a&pageMask]
	}
	return m.get(buf[:size], size), FaultNone
}

// Store writes the low size bytes (1, 2, 4, or 8) of val at addr.
// Accesses to the null page fault.
func (m *Memory) Store(addr uint64, val uint64, size int) Fault {
	if addr < 4096 {
		return FaultMemory
	}
	p := m.pageFor(addr)
	p.gen++
	if p.code {
		m.codeGen++
	}
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		m.put(p.data[off:off+uint64(size)], val, size)
		return FaultNone
	}
	var buf [8]byte
	m.put(buf[:size], val, size)
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		q := m.pageFor(a)
		q.gen++
		if q.code && q != p {
			m.codeGen++
		}
		q.data[a&pageMask] = buf[i]
	}
	return FaultNone
}

func (m *Memory) get(b []byte, size int) uint64 {
	var v uint64
	if m.order == LittleEndian {
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	} else {
		for i := 0; i < size; i++ {
			v = v<<8 | uint64(b[i])
		}
	}
	return v
}

func (m *Memory) put(b []byte, v uint64, size int) {
	if m.order == LittleEndian {
		for i := 0; i < size; i++ {
			b[i] = byte(v)
			v >>= 8
		}
	} else {
		for i := size - 1; i >= 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// WriteBytes copies raw bytes into memory (used by loaders); it bypasses the
// null-page check so loaders can place data anywhere.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		p := m.pageFor(addr)
		p.gen++
		if p.code {
			m.codeGen++
		}
		off := addr & pageMask
		n := copy(p.data[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n raw bytes out of memory into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		out[i] = m.pageFor(a).data[a&pageMask]
	}
	return out
}

// PageBases returns the base addresses of all mapped pages in ascending
// order. Differential checkers use it to walk exactly the memory a run
// touched without forcing page allocation elsewhere.
func (m *Memory) PageBases() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for idx := range m.pages {
		out = append(out, idx<<pageShift)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageSize returns the memory page granularity in bytes.
func PageSize() int { return pageSize }

// Fault identifies an architectural fault raised during instruction
// execution. FaultNone means no fault.
type Fault uint8

// Architectural fault codes.
const (
	FaultNone    Fault = iota
	FaultMemory        // access to unmapped/forbidden memory (null page)
	FaultIllegal       // undecodable or illegal instruction
	FaultHalt          // simulated program requested exit
	FaultBreak         // breakpoint/trap instruction
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultMemory:
		return "memory"
	case FaultIllegal:
		return "illegal"
	case FaultHalt:
		return "halt"
	case FaultBreak:
		return "break"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}
