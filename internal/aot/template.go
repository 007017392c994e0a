package aot

// runnerHarness is the static half of a generated runner binary. It is
// compiled as package main next to the source EmitRunner produces for one
// (spec, buildset) pair, and supplies everything the generated instruction
// functions reference: the paged memory model (byte-for-byte the semantics
// of internal/mach), the register spaces, the OS emulation of
// internal/sysemu, the pure-builtin helpers of lis.EvalPureBuiltin, the
// interface drivers (One/Block per-call and Step per-entrypoint, mirroring
// core.Exec), and the length-prefixed frame protocol the host speaks.
//
// The driver loops are transcriptions of the closure engine's observable
// semantics: fault-before-nullify ordering and exception diversion live in
// the generated functions; fetch/decode/commit ordering, frame staleness
// (One/Block never clear field storage between instructions; Step clears
// everything at entrypoint 0 and hidden fields at later entrypoints), and
// the no-retire-on-fault rule live here. A run reports what the host can
// compare with the interpreter: the record stream and the final
// architectural state. The runner keeps no undo journal (stores write
// through), so a _spec buildset runs here without rollback support.
const runnerHarness = `package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"time"
)

// ---- memory (mirrors internal/mach/mem.go) ----

const pageBits = 16
const pageSize = 1 << pageBits
const nullPage = 4096

// mpage carries the code mark next to the data so the store path can bump
// the code epoch without a second map probe (mach.Memory keeps the same
// page-local flag).
type mpage struct {
	data [pageSize]byte
	code bool
}

var (
	memPages = map[uint64]*mpage{}
	lastPN   = ^uint64(0)
	lastPg   *mpage
)

func pageFor(addr uint64) *mpage {
	pn := addr >> pageBits
	if pn == lastPN {
		return lastPg
	}
	p := memPages[pn]
	if p == nil {
		p = new(mpage)
		memPages[pn] = p
	}
	lastPN, lastPg = pn, p
	return p
}

func memGet(b []byte) uint64 {
	var v uint64
	if gBigEndian {
		for i := 0; i < len(b); i++ {
			v = v<<8 | uint64(b[i])
		}
	} else {
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	}
	return v
}

func memPut(b []byte, v uint64) {
	if gBigEndian {
		for i := len(b) - 1; i >= 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
	} else {
		for i := 0; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

func memLoad(addr uint64, size int) (uint64, uint8) {
	if addr < nullPage {
		return 0, 1
	}
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := pageFor(addr)
		return memGet(p.data[off : off+uint64(size)]), 0
	}
	var buf [8]byte
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		buf[i] = pageFor(a).data[a&(pageSize-1)]
	}
	return memGet(buf[:size]), 0
}

func memStore(addr, val uint64, size int) uint8 {
	if addr < nullPage {
		return 1
	}
	off := addr & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := pageFor(addr)
		if p.code {
			codeEpoch++
		}
		memPut(p.data[off:off+uint64(size)], val)
		return 0
	}
	var buf [8]byte
	memPut(buf[:size], val)
	bumped := false
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		p := pageFor(a)
		if p.code && !bumped {
			codeEpoch++
			bumped = true
		}
		p.data[a&(pageSize-1)] = buf[i]
	}
	return 0
}

// memWriteBytes and memReadBytes bypass the null-page check, like the
// loader/emulator paths mach.Memory.WriteBytes/ReadBytes serve. Writes into
// code-marked pages bump the epoch like stores do (the interpreter's
// syscall-read path invalidates translations the same way).
func memWriteBytes(addr uint64, data []byte) {
	bumped := false
	for len(data) > 0 {
		off := addr & (pageSize - 1)
		n := uint64(pageSize) - off
		if uint64(len(data)) < n {
			n = uint64(len(data))
		}
		p := pageFor(addr)
		if p.code && !bumped {
			codeEpoch++
			bumped = true
		}
		copy(p.data[off:off+n], data[:n])
		addr += n
		data = data[n:]
	}
}

func memReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		out[i] = pageFor(a).data[a&(pageSize-1)]
	}
	return out
}

// ---- register spaces ----

var regs [][]uint64

func spRead(sp, i int) uint64 {
	if i == gSpaceZero[sp] {
		return 0
	}
	return regs[sp][i]
}

func spWrite(sp, i int, v uint64) {
	if i == gSpaceZero[sp] {
		return
	}
	regs[sp][i] = v
}

// ---- machine state ----

var (
	pc       uint64
	instret  uint64
	halted   bool
	exitCode int64
)

// ---- OS emulation (mirrors internal/sysemu) ----

var (
	brk      uint64 = gHeapBase
	ticks    uint64
	stdinBuf []byte
	stdout   []byte
)

func doSyscall() {
	num := int(spRead(0, gConvSyscallNum))
	switch num {
	case 1: // exit
		halted = true
		exitCode = int64(spRead(0, gConvArgs[0]))
		// No return-value write: the program is gone.
	case 2: // write
		var ret uint64
		buf := spRead(0, gConvArgs[1])
		n := spRead(0, gConvArgs[2])
		if n > 1<<20 {
			ret = ^uint64(0)
		} else {
			stdout = append(stdout, memReadBytes(buf, int(n))...)
			ret = n
		}
		spWrite(0, gConvRet, ret)
	case 3: // read
		buf := spRead(0, gConvArgs[1])
		n := int(spRead(0, gConvArgs[2]))
		if n > len(stdinBuf) {
			n = len(stdinBuf)
		}
		if n > 0 {
			memWriteBytes(buf, stdinBuf[:n])
			stdinBuf = stdinBuf[n:]
		}
		spWrite(0, gConvRet, uint64(n))
	case 4: // brk
		if want := spRead(0, gConvArgs[0]); want != 0 {
			brk = want
		}
		spWrite(0, gConvRet, brk)
	case 5: // time
		ticks++
		spWrite(0, gConvRet, ticks)
	default:
		spWrite(0, gConvRet, ^uint64(0))
	}
	if halted {
		diFault = 3
	}
}

func doHalt(code uint64) {
	halted = true
	exitCode = int64(code)
	diFault = 3
}

// ---- helpers referenced by generated code ----

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func tern(c, a, b uint64) uint64 {
	if c != 0 {
		return a
	}
	return b
}

func udiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func urem(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a % b
}

func shl(a, b uint64) uint64 {
	if b >= 64 {
		return 0
	}
	return a << b
}

func shr(a, b uint64) uint64 {
	if b >= 64 {
		return 0
	}
	return a >> b
}

func ldU(addr uint64, size int) uint64 {
	v, f := memLoad(addr, size)
	if f != 0 {
		diFault = f
		return 0
	}
	return v
}

func ldS(addr uint64, size int) uint64 {
	v, f := memLoad(addr, size)
	if f != 0 {
		diFault = f
		return 0
	}
	sh := uint(64 - 8*size)
	return uint64(int64(v<<sh) >> sh)
}

func stV(addr, val uint64, size int) {
	if f := memStore(addr, val, size); f != 0 {
		diFault = f
	}
}

// Pure builtins, transcribed from lis.EvalPureBuiltin.

func bi_sext8(a uint64) uint64  { return uint64(int64(int8(a))) }
func bi_sext16(a uint64) uint64 { return uint64(int64(int16(a))) }
func bi_sext32(a uint64) uint64 { return uint64(int64(int32(a))) }

func bi_sext(a, w uint64) uint64 {
	if w == 0 || w >= 64 {
		return a
	}
	x := a & (1<<w - 1)
	if x&(1<<(w-1)) != 0 {
		x |= ^uint64(0) << w
	}
	return x
}

func bi_trunc(a, w uint64) uint64 {
	if w >= 64 {
		return a
	}
	return a & (1<<w - 1)
}

func bi_bits(a, hi, lo uint64) uint64 {
	if hi >= 64 || lo > hi {
		return 0
	}
	return (a >> lo) & (1<<(hi-lo+1) - 1)
}

func bi_asr(a, s uint64) uint64 {
	if s >= 64 {
		s = 63
	}
	return uint64(int64(a) >> s)
}

func bi_lts(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) }
func bi_les(a, b uint64) uint64 { return b2u(int64(a) <= int64(b)) }
func bi_gts(a, b uint64) uint64 { return b2u(int64(a) > int64(b)) }
func bi_ges(a, b uint64) uint64 { return b2u(int64(a) >= int64(b)) }

func bi_sdiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	if int64(a) == -1<<63 && int64(b) == -1 {
		return a
	}
	return uint64(int64(a) / int64(b))
}

func bi_srem(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	if int64(a) == -1<<63 && int64(b) == -1 {
		return 0
	}
	return uint64(int64(a) % int64(b))
}

func bi_mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

func bi_mulhs(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return hi
}

func bi_rotl32(a, s uint64) uint64 { return uint64(bits.RotateLeft32(uint32(a), int(s&31))) }
func bi_rotr32(a, s uint64) uint64 { return uint64(bits.RotateLeft32(uint32(a), -int(s&31))) }
func bi_rotl64(a, s uint64) uint64 { return bits.RotateLeft64(a, int(s&63)) }
func bi_rotr64(a, s uint64) uint64 { return bits.RotateLeft64(a, -int(s&63)) }
func bi_clz32(a uint64) uint64     { return uint64(bits.LeadingZeros32(uint32(a))) }
func bi_clz64(a uint64) uint64     { return uint64(bits.LeadingZeros64(a)) }
func bi_ctz32(a uint64) uint64     { return uint64(bits.TrailingZeros32(uint32(a))) }
func bi_ctz64(a uint64) uint64     { return uint64(bits.TrailingZeros64(a)) }
func bi_popcnt(a uint64) uint64    { return uint64(bits.OnesCount64(a)) }

// ---- superblocks ----
//
// The One/Block driver executes chained superblocks: straight-line runs of
// decoded instructions (ended by a control transfer, an undecodable or
// faulting fetch, the page boundary, or gMaxBlockLen) dispatched slot to
// slot with no per-instruction fetch/decode. Each block records its observed
// successor so the common path jumps block to block directly; the links and
// the cached decodes are severed by code-store epoch bumps, mirroring the
// interpreter's chain links.

type sbSlot struct {
	pc   uint64
	fall uint64
	bits uint32
	id   uint16
	fn   func()
}

type sblock struct {
	startPC uint64
	epoch   uint64
	slots   []sbSlot
	next    *sblock
}

var (
	sblocks   = map[uint64]*sblock{}
	codeEpoch uint64
)

func markCode(addr uint64) {
	pageFor(addr).code = true
}

// buildSB decodes the superblock starting at startPC, or returns nil when
// the first instruction does not translate (fetch fault, undecodable, or a
// page-straddling fetch, which stays on the dynamic fallback path like the
// interpreter's uncached straddles).
func buildSB(startPC uint64) *sblock {
	pageEnd := (startPC | (pageSize - 1)) + 1
	sb := &sblock{startPC: startPC}
	pcb := startPC
	for len(sb.slots) < gMaxBlockLen {
		if pcb+gInstrSize > pageEnd {
			break
		}
		v, f := memLoad(pcb, int(gInstrSize))
		if f != 0 {
			break
		}
		bits := uint32(v)
		id := gDecode(bits)
		if id < 0 {
			break
		}
		sb.slots = append(sb.slots, sbSlot{pc: pcb, fall: pcb + gInstrSize, bits: bits, id: uint16(id), fn: gInstrFns[id][0]})
		if gInstrCTI[id] {
			break
		}
		pcb += gInstrSize
	}
	if len(sb.slots) == 0 {
		return nil
	}
	markCode(startPC)
	sb.epoch = codeEpoch
	sblocks[startPC] = sb
	return sb
}

// lookupSB returns a current-epoch block for pcv. A stale block is
// revalidated by re-reading its slots' bits; on any mismatch it is rebuilt.
func lookupSB(pcv uint64) *sblock {
	sb := sblocks[pcv]
	if sb == nil {
		return buildSB(pcv)
	}
	if sb.epoch != codeEpoch {
		for si := range sb.slots {
			sl := &sb.slots[si]
			v, f := memLoad(sl.pc, int(gInstrSize))
			if f != 0 || uint32(v) != sl.bits {
				delete(sblocks, pcv)
				return buildSB(pcv)
			}
		}
		sb.epoch = codeEpoch
	}
	return sb
}

// runSuper is the One/Block driver loop. Observable semantics match the
// attemptOne loop exactly: per-slot working-header setup equals attemptOne's
// preamble (the slot's cached bits/id replay fetch+decode, validated by the
// epoch), pc advances through diNextPC so generated assignments to next_pc
// are honored, faulting attempts do not retire, and records are emitted per
// instruction in retirement order.
func runSuper(maxInstr uint64) {
	var pred *sblock
	for !halted && instret < maxInstr {
		var sb *sblock
		if pred != nil && pred.startPC == pc && pred.epoch == codeEpoch {
			sb = pred
		} else {
			sb = lookupSB(pc)
		}
		pred = nil
		if sb == nil {
			attemptOne()
			emitRec()
			if diFault != 0 {
				break
			}
			pc = diNextPC
			instret++
			continue
		}
		full := true
		for si := range sb.slots {
			if instret >= maxInstr {
				full = false
				break
			}
			sl := &sb.slots[si]
			diPC = sl.pc
			diPhysPC = sl.pc
			diNextPC = sl.fall
			diBits = sl.bits
			diID = sl.id
			diFault = 0
			diNullify = false
			sl.fn()
			if emitting {
				emitRec()
			}
			if diFault != 0 {
				full = false
				pc = sl.pc
				break
			}
			pc = diNextPC
			instret++
			if si+1 < len(sb.slots) && pc != sb.slots[si+1].pc {
				// A non-CTI slot redirected next_pc: leave the block.
				full = false
				break
			}
		}
		if full {
			if sb.next != nil && sb.next.startPC == pc && sb.next.epoch == codeEpoch {
				pred = sb.next
			} else if nb := lookupSB(pc); nb != nil {
				sb.next = nb
				pred = nb
			}
		}
		if diFault != 0 {
			break
		}
	}
}

// ---- interface drivers ----

func fetch() {
	v, f := memLoad(diPhysPC, int(gInstrSize))
	if f != 0 {
		diFault = f
		return
	}
	diBits = uint32(v)
}

// attemptOne executes one instruction attempt through the One/Block shape:
// a single call covering every pipeline step. Field storage is deliberately
// not cleared — the interpreter's frame persists across instructions.
func attemptOne() {
	diPC = pc
	diPhysPC = pc
	diNextPC = pc + gInstrSize
	diBits = 0
	diID = gUndecodedID
	diFault = 0
	diNullify = false
	fetch()
	if diFault == 0 {
		if id := gDecode(diBits); id >= 0 {
			diID = uint16(id)
			gInstrFns[id][0]()
			return
		}
		diFault = 2 // illegal
	}
	gFaultFns[0]()
}

// attemptStep executes one instruction attempt through the Step interface:
// one call per entrypoint, the whole frame cleared at entrypoint 0 and
// hidden fields cleared at every later boundary (core.Exec.importRec).
func attemptStep() {
	diPC = pc
	diPhysPC = pc
	diNextPC = pc + gInstrSize
	diBits = 0
	diID = gUndecodedID
	diFault = 0
	diNullify = false
	gClearFields()
	for e := 0; e < gNumEps; e++ {
		if e > 0 {
			gClearHidden()
		}
		if e == gFetchEp && diFault == 0 {
			fetch()
		}
		if e == gDecodeEp && diFault == 0 && diID == gUndecodedID {
			if id := gDecode(diBits); id >= 0 {
				diID = uint16(id)
			} else {
				diFault = 2
			}
		}
		if diID != gUndecodedID {
			gInstrFns[diID][e]()
		} else {
			gFaultFns[e]()
		}
		emitRec()
	}
}

// runProgram drives attempts until halt, fault, or the instruction budget.
// Faulting (halting) attempts do not retire: pc stays at the attempt.
func runProgram(maxInstr uint64, wantRecs bool) {
	stepMode := gNumEps > 1
	emitting = wantRecs && (stepMode || !gModeBlock || gEmitRecs)
	if stepMode {
		for !halted && instret < maxInstr {
			attemptStep()
			if diFault != 0 {
				break
			}
			pc = diNextPC
			instret++
		}
	} else {
		runSuper(maxInstr)
	}
	emitting = false
}

// ---- frame protocol ----

const maxFrame = 1 << 26

var (
	protoIn  = bufio.NewReader(os.Stdin)
	protoOut = bufio.NewWriter(os.Stdout)

	// Plugin mode (see the Plugin* exports): frames are collected in memory
	// instead of written to stdout, and protocol errors panic (recovered at
	// the export boundary) instead of exiting the host process.
	pluginMode   bool
	pluginFrames [][]byte
)

func fatalf(format string, args ...any) {
	if pluginMode {
		panic(fmt.Sprintf("aotrunner: "+format, args...))
	}
	fmt.Fprintf(os.Stderr, "aotrunner: "+format+"\n", args...)
	os.Exit(2)
}

func readFrame() ([]byte, error) {
	var lb [4]byte
	if _, err := io.ReadFull(protoIn, lb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(protoIn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeFrame(payload []byte) {
	if pluginMode {
		// Copy: record batches reuse recBuf's backing array after a flush.
		pluginFrames = append(pluginFrames, append([]byte(nil), payload...))
		return
	}
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(payload)))
	protoOut.Write(lb[:])
	protoOut.Write(payload)
}

func append4(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func append8(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func sendHello() {
	p := []byte{'H'}
	p = append(p, byte(len(gSpecName)), byte(len(gSpecName)>>8))
	p = append(p, gSpecName...)
	p = append(p, byte(len(gBuildsetName)), byte(len(gBuildsetName)>>8))
	p = append(p, gBuildsetName...)
	p = append4(p, uint32(len(gVisNames)))
	for _, n := range gVisNames {
		p = append(p, byte(len(n)), byte(len(n)>>8))
		p = append(p, n...)
	}
	p = append4(p, uint32(gNumEps))
	p = append(p, b2u8(gModeBlock), b2u8(gEmitRecs))
	writeFrame(p)
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---- record stream ----

// Records accumulate directly into a pre-tagged frame buffer and flush once
// the batch reaches pipe size: one length prefix and one write per batch
// instead of per fixed record count, so the record path costs appends, not
// syscalls.
const recBatchTarget = 1 << 16

var (
	emitting bool
	recBuf   = []byte{'R', 0, 0, 0, 0}
	recCount uint32
)

func emitRec() {
	if !emitting {
		return
	}
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], diPC)
	binary.LittleEndian.PutUint64(hdr[8:], diPhysPC)
	binary.LittleEndian.PutUint64(hdr[16:], diNextPC)
	binary.LittleEndian.PutUint32(hdr[24:], diBits)
	binary.LittleEndian.PutUint16(hdr[28:], diID)
	hdr[30] = diFault
	hdr[31] = b2u8(diNullify)
	recBuf = append(recBuf, hdr[:]...)
	for _, p := range gVisPtrs {
		recBuf = append8(recBuf, *p)
	}
	recCount++
	if len(recBuf) >= recBatchTarget {
		flushRecs()
	}
}

func flushRecs() {
	if recCount == 0 {
		return
	}
	binary.LittleEndian.PutUint32(recBuf[1:5], recCount)
	writeFrame(recBuf)
	recBuf = recBuf[:5]
	recCount = 0
}

// ---- program image and reset ----

type progSeg struct {
	name string
	addr uint64
	data []byte
}

var (
	progSegs  []progSeg
	progEntry uint64
)

func handleInit(p []byte) {
	hardReset()
	d := newDec(p)
	progEntry = d.u64()
	nSegs := d.u32()
	progSegs = nil
	for i := uint32(0); i < nSegs && d.err == nil; i++ {
		name := string(d.bytes(int(d.u16())))
		addr := d.u64()
		data := append([]byte(nil), d.bytes(int(d.u32()))...)
		progSegs = append(progSegs, progSeg{name, addr, data})
	}
	stdinBuf = append([]byte(nil), d.bytes(int(d.u32()))...)
	if d.err != nil {
		fatalf("malformed init frame: %v", d.err)
	}
	for _, sg := range progSegs {
		memWriteBytes(sg.addr, sg.data)
	}
	pc = progEntry
}

// hardReset restores process-start machine state. In the subprocess it runs
// once per Init as a no-op refresh; through the plugin path it is what makes
// a cached handle reusable (plugin.Open loads one copy per process, so
// successive sessions share these globals).
func hardReset() {
	memPages = map[uint64]*mpage{}
	lastPN, lastPg = ^uint64(0), nil
	sblocks = map[uint64]*sblock{}
	codeEpoch = 0
	for _, r := range regs {
		for i := range r {
			r[i] = 0
		}
	}
	pc = 0
	instret = 0
	halted = false
	exitCode = 0
	diPC, diPhysPC, diNextPC = 0, 0, 0
	diBits = 0
	diID = gUndecodedID
	diFault = 0
	diNullify = false
	gClearFields()
	brk = gHeapBase
	ticks = 0
	stdinBuf = nil
	stdout = nil
	recBuf = recBuf[:5]
	recCount = 0
	progSegs = nil
	progEntry = 0
}

// reset mirrors the host-side expt.Runner.reset: zero the register file,
// clear halt state and counters, reinstall the stack pointer, and reload
// the data segments. Memory pages, brk, ticks, and remaining stdin persist,
// as they do across runs of one interpreter cell. Cached superblocks also
// persist.
func reset() {
	for _, r := range regs {
		for i := range r {
			r[i] = 0
		}
	}
	halted = false
	exitCode = 0
	instret = 0
	stdout = stdout[:0]
	spWrite(0, gConvStack, gStackTop)
	for _, sg := range progSegs {
		if sg.name != ".text" {
			memWriteBytes(sg.addr, sg.data)
		}
	}
	pc = progEntry
}

func handleRun(p []byte) {
	d := newDec(p)
	maxInstr := d.u64()
	wantRecs := d.u8() != 0
	resultAddr := d.u64()
	if d.err != nil {
		fatalf("malformed run frame: %v", d.err)
	}
	reset()
	start := time.Now()
	runProgram(maxInstr, wantRecs)
	elapsed := time.Since(start)
	flushRecs()
	sendFinal(resultAddr, uint64(elapsed.Nanoseconds()))
}

func sendFinal(resultAddr, elapsedNs uint64) {
	var resultWord uint32
	if resultAddr != 0 {
		if v, f := memLoad(resultAddr, 4); f == 0 {
			resultWord = uint32(v)
		}
	}
	p := []byte{'F', b2u8(halted)}
	p = append8(p, uint64(exitCode))
	p = append(p, diFault)
	p = append8(p, pc)
	p = append8(p, instret)
	p = append8(p, elapsedNs)
	p = append4(p, resultWord)
	p = append4(p, uint32(len(regs)))
	for _, r := range regs {
		p = append4(p, uint32(len(r)))
		for _, v := range r {
			p = append8(p, v)
		}
	}
	p = append4(p, uint32(len(stdout)))
	p = append(p, stdout...)
	writeFrame(p)
}

// ---- input decoding ----

type dec struct {
	b   []byte
	off int
	err error
}

func newDec(b []byte) *dec { return &dec{b: b} }

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("truncated at offset %d (need %d of %d)", d.off, n, len(d.b))
		return false
	}
	return true
}

func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes(n int) []byte {
	if n < 0 || !d.need(n) {
		if d.err == nil {
			d.err = fmt.Errorf("negative length %d", n)
		}
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// ---- plugin exports ----
//
// When the runner is built with -buildmode=plugin the host loads it in
// process (aot.LoadPlugin) and drives these exports with the same payloads
// the pipe protocol carries, minus the length prefixes. Symbol types stick
// to builtins so host and plugin need no shared package.

func ensureRegs() {
	if regs == nil {
		regs = make([][]uint64, len(gSpaceCount))
		for i, c := range gSpaceCount {
			regs[i] = make([]uint64, c)
		}
	}
}

func pluginEnter() {
	pluginMode = true
	ensureRegs()
	pluginFrames = nil
}

// PluginHello returns the hello frame payload ('H'-tagged).
func PluginHello() []byte {
	pluginEnter()
	sendHello()
	out := pluginFrames
	pluginFrames = nil
	return out[0]
}

// PluginInit applies an init payload (the bytes after the 'I' tag) to a
// hard-reset machine. Returns "" on success or an error description.
func PluginInit(p []byte) (errs string) {
	defer func() {
		if r := recover(); r != nil {
			errs = fmt.Sprint(r)
		}
	}()
	pluginEnter()
	handleInit(p)
	return ""
}

// PluginRun executes a run payload (the bytes after the 'R' tag) and
// returns the frames the run produced: zero or more 'R' record batches
// followed by the final 'F' frame.
func PluginRun(p []byte) (frames [][]byte, errs string) {
	defer func() {
		if r := recover(); r != nil {
			frames, errs = nil, fmt.Sprint(r)
		}
	}()
	pluginEnter()
	handleRun(p)
	out := pluginFrames
	pluginFrames = nil
	return out, ""
}

func main() {
	regs = make([][]uint64, len(gSpaceCount))
	for i, c := range gSpaceCount {
		regs[i] = make([]uint64, c)
	}
	_ = gSpaceName
	sendHello()
	if err := protoOut.Flush(); err != nil {
		fatalf("writing hello: %v", err)
	}
	for {
		buf, err := readFrame()
		if err != nil {
			if err == io.EOF {
				return // host closed our stdin: clean shutdown
			}
			fatalf("reading frame: %v", err)
		}
		switch buf[0] {
		case 'I':
			handleInit(buf[1:])
		case 'R':
			handleRun(buf[1:])
			if err := protoOut.Flush(); err != nil {
				fatalf("writing run results: %v", err)
			}
		case 'Q':
			protoOut.Flush()
			return
		default:
			fatalf("unknown frame type %#x", buf[0])
		}
	}
}
`
