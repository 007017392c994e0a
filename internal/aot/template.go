package aot

// runnerHarness is the static half of a generated runner binary. It is
// compiled as package main next to the source EmitRunner produces for one
// (spec, buildset) pair, as a package of this module (see build.go), and
// runs the generated instruction functions on the interpreter's substrate:
// a mach.Machine holds memory and registers, a sysemu.Emulator serves OS
// entry, and the generated code calls lis for builtins and guarded
// operators. The harness adds only what is runner-specific: the helpers
// that map mach faults into the emitter's fault protocol, the interface
// drivers (One/Block superblocks and Step per-entrypoint, mirroring
// core.Exec), and the length-prefixed frame protocol the host speaks.
//
// The driver loops are transcriptions of the closure engine's observable
// semantics: fault-before-nullify ordering and exception diversion live in
// the generated functions; fetch/decode/commit ordering, frame staleness
// (One/Block never clear field storage between instructions; Step clears
// everything at entrypoint 0 and hidden fields at later entrypoints), and
// the no-retire-on-fault rule live here. A run reports what the host can
// compare with the interpreter: the record stream and the final
// architectural state. The machine's journal stays off (stores write
// through), so a _spec buildset runs here without rollback support.
const runnerHarness = `package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"singlespec/internal/isa"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// ---- machine ----

var (
	mc  *mach.Machine
	mem *mach.Memory // mc.Mem, one load closer for the load and store paths
	emu *sysemu.Emulator
	// regs[s] is mc.Spaces[s].Vals, which generated code indexes directly
	// for a constant register operand.
	regs [][]uint64
)

// newMachine replaces the machine and its OS emulation with fresh ones:
// empty memory, zeroed registers, the break at the heap base, no stdin and
// no output.
func newMachine() {
	order := mach.LittleEndian
	if gBigEndian {
		order = mach.BigEndian
	}
	defs := make([]mach.SpaceDef, len(gSpaceCount))
	for i := range defs {
		defs[i] = mach.SpaceDef{Name: gSpaceName[i], Count: gSpaceCount[i], ZeroReg: gSpaceZero[i]}
	}
	mem = mach.NewMemory(order)
	mc = mach.NewMachine(mem, defs)
	regs = make([][]uint64, len(mc.Spaces))
	for i, sp := range mc.Spaces {
		regs[i] = sp.Vals
	}
	emu = sysemu.New(isa.Convention{SyscallNum: gConvSyscallNum, Args: gConvArgs, Ret: gConvRet,
		Stack: gConvStack, HeapBase: gHeapBase, StackTop: gStackTop})
}

func spRead(sp, i int) uint64     { return mc.Spaces[sp].Read(i) }
func spWrite(sp, i int, v uint64) { mc.Spaces[sp].Write(i, v) }

func doSyscall() {
	emu.Handle(mc)
	if mc.Halted {
		diFault = uint8(mach.FaultHalt)
	}
}

func doHalt(code uint64) {
	mc.Halt(int(code))
	diFault = uint8(mach.FaultHalt)
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

func ldU(addr uint64, size int) uint64 {
	v, f := mem.Load(addr, size)
	if f != mach.FaultNone {
		diFault = uint8(f)
		return 0
	}
	return v
}

func ldS(addr uint64, size int) uint64 {
	v := ldU(addr, size)
	sh := uint(64 - 8*size)
	return uint64(int64(v<<sh) >> sh)
}

func stV(addr, val uint64, size int) {
	if f := mem.Store(addr, val, size); f != mach.FaultNone {
		diFault = uint8(f)
	}
}

// ---- superblocks ----
//
// The One/Block driver executes chained superblocks: straight-line runs of
// decoded instructions (ended by a control transfer, an undecodable or
// faulting fetch, the page boundary, or gMaxBlockLen) dispatched slot to
// slot with no per-instruction fetch/decode. Each block records its observed
// successor so the common path jumps block to block directly. A block is
// current while the memory's code-store epoch (mach.Memory.CodeGen) equals
// the one it was validated at, so a store into a code page severs the links
// and revalidates the cached decodes, mirroring the interpreter's chain
// links.

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

var sblocks = map[uint64]*sblock{}

// buildSB decodes the superblock starting at startPC, or returns nil when
// the first instruction does not translate (fetch fault, undecodable, or a
// page-straddling fetch, which stays on the dynamic fallback path like the
// interpreter's uncached straddles).
func buildSB(startPC uint64) *sblock {
	pageEnd := (startPC | uint64(mach.PageSize()-1)) + 1
	sb := &sblock{startPC: startPC}
	pcb := startPC
	for len(sb.slots) < gMaxBlockLen {
		if pcb+gInstrSize > pageEnd {
			break
		}
		v, f := mem.Load(pcb, int(gInstrSize))
		if f != mach.FaultNone {
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
	mem.MarkCode(startPC)
	sb.epoch = mem.CodeGen()
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
	if sb.epoch != mem.CodeGen() {
		for si := range sb.slots {
			sl := &sb.slots[si]
			v, f := mem.Load(sl.pc, int(gInstrSize))
			if f != mach.FaultNone || uint32(v) != sl.bits {
				delete(sblocks, pcv)
				return buildSB(pcv)
			}
		}
		sb.epoch = mem.CodeGen()
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
	m := mc
	var pred *sblock
	for !m.Halted && m.Instret < maxInstr {
		var sb *sblock
		if pred != nil && pred.startPC == m.PC && pred.epoch == mem.CodeGen() {
			sb = pred
		} else {
			sb = lookupSB(m.PC)
		}
		pred = nil
		if sb == nil {
			attemptOne()
			emitRec()
			if diFault != 0 {
				break
			}
			m.PC = diNextPC
			m.Instret++
			continue
		}
		full := true
		for si := range sb.slots {
			if m.Instret >= maxInstr {
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
				m.PC = sl.pc
				break
			}
			m.PC = diNextPC
			m.Instret++
			if si+1 < len(sb.slots) && m.PC != sb.slots[si+1].pc {
				// A non-CTI slot redirected next_pc: leave the block.
				full = false
				break
			}
		}
		if full {
			if sb.next != nil && sb.next.startPC == m.PC && sb.next.epoch == mem.CodeGen() {
				pred = sb.next
			} else if nb := lookupSB(m.PC); nb != nil {
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
	v, f := mem.Load(diPhysPC, int(gInstrSize))
	if f != mach.FaultNone {
		diFault = uint8(f)
		return
	}
	diBits = uint32(v)
}

// attemptOne executes one instruction attempt through the One/Block shape:
// a single call covering every pipeline step. Field storage is deliberately
// not cleared — the interpreter's frame persists across instructions.
func attemptOne() {
	diPC = mc.PC
	diPhysPC = mc.PC
	diNextPC = mc.PC + gInstrSize
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
		diFault = uint8(mach.FaultIllegal)
	}
	gFaultFns[0]()
}

// attemptStep executes one instruction attempt through the Step interface:
// one call per entrypoint, the whole frame cleared at entrypoint 0 and
// hidden fields cleared at every later boundary (core.Exec.importRec).
func attemptStep() {
	diPC = mc.PC
	diPhysPC = mc.PC
	diNextPC = mc.PC + gInstrSize
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
				diFault = uint8(mach.FaultIllegal)
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
		for !mc.Halted && mc.Instret < maxInstr {
			attemptStep()
			if diFault != 0 {
				break
			}
			mc.PC = diNextPC
			mc.Instret++
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
	for i := uint32(0); i < nSegs && d.err == nil; i++ {
		name := string(d.bytes(int(d.u16())))
		addr := d.u64()
		data := append([]byte(nil), d.bytes(int(d.u32()))...)
		progSegs = append(progSegs, progSeg{name, addr, data})
	}
	emu.Stdin = append([]byte(nil), d.bytes(int(d.u32()))...)
	if d.err != nil {
		fatalf("malformed init frame: %v", d.err)
	}
	for _, sg := range progSegs {
		mem.WriteBytes(sg.addr, sg.data)
	}
	mc.PC = progEntry
}

// hardReset restores process-start state: a fresh machine and emulator, no
// superblocks, no program and cleared working state. In the subprocess it
// runs once per Init; through the plugin path it is what makes a cached
// handle reusable (plugin.Open loads one copy per process, so successive
// sessions share these globals).
func hardReset() {
	newMachine()
	sblocks = map[uint64]*sblock{}
	diPC, diPhysPC, diNextPC = 0, 0, 0
	diBits = 0
	diID = gUndecodedID
	diFault = 0
	diNullify = false
	gClearFields()
	recBuf = recBuf[:5]
	recCount = 0
	progSegs = nil
	progEntry = 0
}

// reset mirrors the host-side expt.Runner.reset: zero the register file,
// clear halt state and counters, reinstall the stack pointer, and reload
// the data segments. Memory, brk, ticks and remaining stdin persist, as
// they do across runs of one interpreter cell; stdout does not. Cached
// superblocks also persist.
func reset() {
	for _, r := range regs {
		clear(r)
	}
	mc.Halted = false
	mc.ExitCode = 0
	mc.Instret = 0
	emu.Stdout.Reset()
	spWrite(0, gConvStack, gStackTop)
	for _, sg := range progSegs {
		if sg.name != ".text" {
			mem.WriteBytes(sg.addr, sg.data)
		}
	}
	mc.PC = progEntry
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
		if v, f := mem.Load(resultAddr, 4); f == mach.FaultNone {
			resultWord = uint32(v)
		}
	}
	p := []byte{'F', b2u8(mc.Halted)}
	p = append8(p, uint64(mc.ExitCode))
	p = append(p, diFault)
	p = append8(p, mc.PC)
	p = append8(p, mc.Instret)
	p = append8(p, elapsedNs)
	p = append4(p, resultWord)
	p = append4(p, uint32(len(regs)))
	for _, r := range regs {
		p = append4(p, uint32(len(r)))
		for _, v := range r {
			p = append8(p, v)
		}
	}
	out := emu.Stdout.Bytes()
	p = append4(p, uint32(len(out)))
	p = append(p, out...)
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
// to builtins, so the host needs none of the runner's own types.

func pluginEnter() {
	pluginMode = true
	if mc == nil {
		newMachine()
	}
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
	newMachine()
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
