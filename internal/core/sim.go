package core

import (
	"fmt"
	"sort"

	"singlespec/internal/lis"
	"singlespec/internal/mach"
)

// Options tune synthesis, mostly for the paper's ablation studies.
type Options struct {
	// NoTranslate disables the per-PC translation cache so the One
	// interface decodes every instruction (the paper's footnote-5
	// interpreted-simulation ablation).
	NoTranslate bool
	// NoDCE disables dead-code elimination of hidden-field computation
	// (ablation: where does the Min-detail win come from?).
	NoDCE bool
	// ForceRecords makes the Block interface produce per-instruction
	// records even when no field beyond the minimal set is visible.
	ForceRecords bool
	// MaxBlockLen bounds translated basic blocks (default 64 instructions).
	MaxBlockLen int
	// CacheCap bounds the translation caches (default 1<<16 entries).
	CacheCap int
}

// Sim is a functional simulator synthesized from one (spec, buildset)
// pair: the concrete artifact the single-specification principle derives.
type Sim struct {
	Spec   *lis.Spec
	BS     *lis.Buildset
	Layout *Layout
	// Warnings from interface analysis (read-before-write and similar).
	Warnings []string
	Opts     Options

	fslot       []int // field index -> frame slot (-1 for builtins)
	frameFields int
	frameSize   int

	dec      *decoder
	preSteps []preStep
	// genUnits[instr ID]: dynamically-dispatched compiled units (used by
	// the Step interface and the interpreted One path).
	genUnits  []*unit
	faultUnit *unit // ALL-actions-only unit for pre-decode faults

	// pubFr[i] is the frame slot published to Record.Vals[i].
	pubFr   []int
	pubWork uint32

	epOf      []int // step -> entrypoint ordinal
	hasDecode []bool
	lastEp    int
	instrSize uint64
	// emitRecs caches whether Block execution publishes per-instruction
	// records (visible fields beyond the minimal set, or ForceRecords), so
	// the dispatch loop does not recompute it per block.
	emitRecs bool

	// shared is the second-level translation cache: translated units and
	// blocks published across all Execs of this Sim (see transcache.go).
	// It is the only mutable state reachable from a Sim after Synthesize,
	// which is what makes one Sim safely shareable across goroutines.
	shared *sharedCache

	// localFields marks hidden fields the emitter demotes to per-function
	// locals in generated runner code (see localize.go). Computed once at
	// synthesis so emission stays deterministic and read-only.
	localFields map[string]bool
}

// undecoded marks a record whose instruction has not been decoded (yet) or
// failed to decode.
const undecoded = 0xffff

type preStep struct {
	step  int
	fetch bool
	run   stepFn // fused ALL actions at this step; may be nil
}

type seg struct {
	step int
	exc  bool
	run  stepFn
	work uint32
}

// unit is the compiled form of one instruction under one buildset, possibly
// specialized for a fixed PC (translated mode).
type unit struct {
	in     *lis.Instr
	segs   []seg
	excIdx int32
	epLo   []int32
	epHi   []int32
	work   uint32

	// Translated-mode extras. A unit is immutable once translate returns,
	// so it may be published in the Sim's shared cache and executed
	// concurrently; validity against a particular machine's memory is
	// established by the caller (bits comparison or page generation).
	pc     uint64
	physPC uint64
	bits   uint32
	id     uint16
	fall   uint64 // pc + instruction size
}

// Synthesize specializes spec for the named buildset and returns the
// resulting functional simulator.
func Synthesize(spec *lis.Spec, buildset string, opts Options) (s *Sim, err error) {
	bs := spec.Buildset(buildset)
	if bs == nil {
		return nil, fmt.Errorf("core: spec %q has no buildset %q", spec.Name, buildset)
	}
	if opts.MaxBlockLen <= 0 {
		opts.MaxBlockLen = 64
	}
	if opts.CacheCap <= 0 {
		opts.CacheCap = 1 << 16
	}
	// Compile errors arrive as *lis.Error panics from compiler.errf (see
	// the comment there); this recover is the other half of that protocol,
	// turning them into ordinary returned errors at the API boundary.
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*lis.Error); ok {
				err = le
				s = nil
				return
			}
			panic(r)
		}
	}()

	s = &Sim{
		Spec: spec, BS: bs, Layout: buildLayout(spec, bs), Opts: opts,
		instrSize: uint64(spec.InstrSize),
		shared:    newSharedCache(opts.CacheCap),
	}
	// Frame plan: every non-builtin field gets a private slot.
	s.fslot = make([]int, len(spec.Fields))
	for i, f := range spec.Fields {
		if f.Builtin {
			s.fslot[i] = -1
			continue
		}
		s.fslot[i] = s.frameFields
		s.frameFields++
	}
	s.frameSize = s.frameFields + maxLets(spec)

	// Publish plan.
	for _, name := range s.Layout.FieldNames() {
		f := spec.Field(name)
		s.pubFr = append(s.pubFr, s.fslot[f.Index])
	}
	s.pubWork = uint32(len(s.pubFr)) + 4
	s.emitRecs = s.Layout.NumSlots() > 0 || opts.ForceRecords

	// Entrypoint maps.
	s.epOf = make([]int, len(spec.Steps))
	for i := range s.epOf {
		s.epOf[i] = -1
	}
	s.hasDecode = make([]bool, len(bs.Entrypoints))
	for ei, ep := range bs.Entrypoints {
		for _, st := range ep.Steps {
			s.epOf[st] = ei
			if st == spec.DecodeStep {
				s.hasDecode[ei] = true
			}
		}
	}
	s.lastEp = len(bs.Entrypoints) - 1

	s.dec = buildDecoder(spec)
	s.buildPreSteps()

	// Compile the dynamically-dispatched unit for every instruction, and
	// run the interface checks.
	s.genUnits = make([]*unit, len(spec.Instrs))
	var errs []string
	for _, in := range spec.Instrs {
		ops := buildOps(spec, in)
		li := analyzeLiveness(bs, ops, false)
		if opts.NoDCE {
			li = liveAll(ops)
		}
		es, ws := checkInterface(spec, bs, in, ops, li)
		errs = append(errs, es...)
		s.Warnings = append(s.Warnings, ws...)
		s.genUnits[in.ID] = s.compileUnit(in, ops, li, nil)
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return nil, fmt.Errorf("core: interface errors in buildset %q:\n  %s", bs.Name, joinLines(errs))
	}
	s.faultUnit = s.compileFaultUnit()
	s.localFields = s.computeLocalFields()
	return s, nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}

// liveAll marks every op and statement live (NoDCE ablation).
func liveAll(ops []iop) *liveInfo {
	li := &liveInfo{stmt: make(map[lis.Stmt]bool), op: make([]bool, len(ops))}
	var allStmt func(st lis.Stmt)
	allStmt = func(st lis.Stmt) {
		li.stmt[st] = true
		switch st := st.(type) {
		case *lis.Block:
			for _, s2 := range st.Stmts {
				allStmt(s2)
			}
		case *lis.IfStmt:
			allStmt(st.Then)
			if st.Else != nil {
				allStmt(st.Else)
			}
		}
	}
	for i := range ops {
		li.op[i] = true
		if ops[i].kind == opAction {
			allStmt(ops[i].act.Body)
		}
	}
	return li
}

// maxLets returns the largest number of let-locals any instruction can need
// (bounding the frame's scratch area).
func maxLets(spec *lis.Spec) int {
	var count func(st lis.Stmt) int
	count = func(st lis.Stmt) int {
		switch st := st.(type) {
		case *lis.Block:
			n := 0
			for _, s2 := range st.Stmts {
				n += count(s2)
			}
			return n
		case *lis.LetStmt:
			return 1
		case *lis.IfStmt:
			n := count(st.Then)
			if st.Else != nil {
				n += count(st.Else)
			}
			return n
		}
		return 0
	}
	max := 0
	for _, in := range spec.Instrs {
		n := 0
		for _, acts := range in.StepActions {
			for _, a := range acts {
				n += count(a.Body)
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}

// buildPreSteps compiles the engine's pre-decode sequence: per step before
// the decode step, the fused ALL actions plus the engine fetch.
func (s *Sim) buildPreSteps() {
	for st := 0; st < s.Spec.DecodeStep; st++ {
		ps := preStep{step: st, fetch: st == s.Spec.FetchStep}
		if acts := s.Spec.AllActions[st]; len(acts) > 0 {
			c := s.newCompiler(nil, liveAllActions(acts))
			var stmts []cstmt
			for _, a := range acts {
				if cs, cf := c.compileBlock(a.Body); cs != nil {
					stmts = append(stmts, cstmt{run: cs, canFault: cf})
				}
			}
			ps.run, _ = fuse(stmts)
		}
		if ps.fetch || ps.run != nil {
			s.preSteps = append(s.preSteps, ps)
		}
	}
}

// liveAllActions builds a liveInfo marking everything in the given actions
// live (pre-decode ALL actions are not subject to DCE).
func liveAllActions(acts []*lis.Action) *liveInfo {
	ops := make([]iop, len(acts))
	for i, a := range acts {
		ops[i] = iop{kind: opAction, act: a}
	}
	return liveAll(ops)
}

func (s *Sim) newCompiler(in *lis.Instr, li *liveInfo) *compiler {
	return &compiler{sim: s, in: in, li: li, letSlots: make(map[*lis.Local]int)}
}

// compileUnit compiles one instruction's post-decode program. tc, when
// non-nil, supplies translated-mode constants.
type transCtx struct {
	pc   uint64
	bits uint32
}

func (s *Sim) compileUnit(in *lis.Instr, ops []iop, li *liveInfo, tc *transCtx) *unit {
	c := s.newCompiler(in, li)
	if tc != nil {
		c.constPC, c.pc = true, tc.pc
		c.constBits, c.bits = true, tc.bits
	}
	u := &unit{in: in, excIdx: -1}
	// Group live ops by step, tracking emitted work per step.
	byStep := make(map[int][]cstmt)
	stepWork := make(map[int]int)
	var stepOrder []int
	for i, op := range ops {
		if !li.op[i] {
			continue
		}
		w0 := c.work
		var cs cstmt
		if op.kind == opAction {
			run, cf := c.compileBlock(op.act.Body)
			if run == nil {
				continue
			}
			cs = cstmt{run: run, canFault: cf}
		} else {
			cs = c.compileOp(op)
		}
		if _, seen := byStep[op.step]; !seen {
			stepOrder = append(stepOrder, op.step)
		}
		byStep[op.step] = append(byStep[op.step], cs)
		stepWork[op.step] += c.work - w0
	}
	sort.Ints(stepOrder)
	for _, st := range stepOrder {
		run, _ := fuse(byStep[st])
		if run == nil {
			continue
		}
		u.segs = append(u.segs, seg{
			step: st, exc: st == s.Spec.ExcStep, run: run,
			work: uint32(stepWork[st] + len(byStep[st])),
		})
	}
	for i := range u.segs {
		if u.segs[i].exc {
			u.excIdx = int32(i)
		}
		u.work += u.segs[i].work
	}
	u.work += 2 // dispatch overhead
	// Entrypoint ranges over segs (segs are in ascending step order and
	// entrypoints partition steps in order).
	nEp := len(s.BS.Entrypoints)
	u.epLo = make([]int32, nEp)
	u.epHi = make([]int32, nEp)
	for e := 0; e < nEp; e++ {
		lo, hi := 0, 0
		found := false
		for i, sg := range u.segs {
			if s.epOf[sg.step] == e {
				if !found {
					lo = i
					found = true
				}
				hi = i + 1
			}
		}
		u.epLo[e], u.epHi[e] = int32(lo), int32(hi)
	}
	return u
}

// compileFaultUnit builds a unit containing only ALL actions (used when a
// fault occurs before decode identifies the instruction).
func (s *Sim) compileFaultUnit() *unit {
	spec := s.Spec
	var ops []iop
	for st := spec.DecodeStep; st < len(spec.Steps); st++ {
		for _, a := range spec.AllActions[st] {
			ops = append(ops, iop{kind: opAction, step: st, act: a})
		}
	}
	return s.compileUnit(nil, ops, liveAll(ops), nil)
}

// ---- decoder ----

type decoder struct {
	common  uint32
	buckets map[uint32][]decEntry
}

type decEntry struct {
	mask, val uint32
	id        uint16
}

func buildDecoder(spec *lis.Spec) *decoder {
	d := &decoder{buckets: make(map[uint32][]decEntry)}
	if len(spec.Instrs) == 0 {
		return d
	}
	d.common = ^uint32(0)
	for _, in := range spec.Instrs {
		d.common &= uint32(in.Mask)
	}
	for _, in := range spec.Instrs {
		key := uint32(in.Value) & d.common
		d.buckets[key] = append(d.buckets[key], decEntry{
			mask: uint32(in.Mask), val: uint32(in.Value), id: uint16(in.ID),
		})
	}
	return d
}

// Decodes reports whether bits decode to some instruction of the spec.
// Fault-injection harnesses use it to find corrupted encodings that are
// guaranteed to divert to the pre-decode fault path (FaultIllegal through
// the ALL-actions faultUnit) rather than silently executing as a different
// valid instruction.
func (s *Sim) Decodes(bits uint32) bool { return s.dec.decode(bits) >= 0 }

// decode returns the instruction ID for an encoding, or -1.
func (d *decoder) decode(bits uint32) int {
	for _, e := range d.buckets[bits&d.common] {
		if bits&e.mask == e.val {
			return int(e.id)
		}
	}
	return -1
}

// ---- execution ----

// Exec is one execution context of a synthesized simulator bound to a
// machine: it owns the frame (private field storage), the translation
// caches, and the work counter.
type Exec struct {
	M   *mach.Machine
	sim *Sim

	// Working copies of the builtin fields during an instruction.
	pc      uint64
	physPC  uint64
	nextPC  uint64
	bits    uint32
	instrID uint16
	fault   mach.Fault
	nullify bool

	fr     []uint64
	spaces []*mach.Space

	// First-level translation caches, private to this Exec (and therefore
	// to its goroutine: an Exec, like its Machine, is confined to one
	// goroutine at a time). They are direct-mapped open-addressed tables
	// (see l1cache.go): entries pair a translated product with the page
	// generation and code-store epoch of this machine's memory at
	// validation time, so self-modifying code invalidates locally without
	// touching the shared cache. Tables are allocated lazily on first use
	// so a One-interface Exec never pays for a block table and vice versa.
	utab utab
	btab btab

	// lastB is the block-table slot of the most recently retired block, or
	// -1 when the previous dispatch cannot anchor a chain link (cold start,
	// fault, dynamic fallback, flush). ExecBlock uses it to follow and to
	// install block->block chain links.
	lastB int32

	// noTrans mirrors Options.NoTranslate (the interpreted-One ablation).
	noTrans bool

	// varena backs Record.Vals allocations in publish: values are carved
	// from one chunk so steady-state publication does not allocate per
	// record. Records own their sub-slices; the arena is append-only and
	// replaced wholesale when exhausted.
	varena []uint64

	work  uint64
	stats ExecStats
}

// ExecStats counts the translation-cache events of one Exec. The fields
// are plain integers — an Exec is confined to one goroutine — and they
// are bumped on paths that already probe a map, so the counting is always
// on. The experiment engine drains them per cell into its obs registry.
type ExecStats struct {
	// Unit (per-instruction translation) cache events.
	UnitL1Hits         uint64 // first-level hits (epoch or generation still valid)
	UnitL1GenEvictions uint64 // entries dropped on a page-generation mismatch
	UnitL1Conflicts    uint64 // entries evicted by a different PC mapping to the slot
	UnitSharedHits     uint64 // second-level (shared, bits-validated) hits
	UnitTranslations   uint64 // fresh translations published to the shared cache

	// Block cache events (the Block interface's translated basic blocks).
	BlockL1Hits         uint64
	BlockL1GenEvictions uint64
	BlockL1Conflicts    uint64
	BlockSharedHits     uint64
	BlockSharedStale    uint64 // shared blocks rejected by per-unit bits validation
	BlockBuilds         uint64 // fresh blocks built and published

	// Block chaining events: links installed between a retired block's
	// table slot and its observed successor, and dispatches resolved by
	// following such a link (skipping the table lookup entirely).
	BlockChainLinks   uint64
	BlockChainFollows uint64
}

// Merge adds o's counts into s, field by field.
func (s *ExecStats) Merge(o ExecStats) {
	s.UnitL1Hits += o.UnitL1Hits
	s.UnitL1GenEvictions += o.UnitL1GenEvictions
	s.UnitL1Conflicts += o.UnitL1Conflicts
	s.UnitSharedHits += o.UnitSharedHits
	s.UnitTranslations += o.UnitTranslations
	s.BlockL1Hits += o.BlockL1Hits
	s.BlockL1GenEvictions += o.BlockL1GenEvictions
	s.BlockL1Conflicts += o.BlockL1Conflicts
	s.BlockSharedHits += o.BlockSharedHits
	s.BlockSharedStale += o.BlockSharedStale
	s.BlockBuilds += o.BlockBuilds
	s.BlockChainLinks += o.BlockChainLinks
	s.BlockChainFollows += o.BlockChainFollows
}

// Stats returns the Exec's accumulated translation-cache counts.
func (x *Exec) Stats() ExecStats { return x.stats }

// NewExec binds the simulator to a machine. The machine's journal is
// enabled iff the buildset declares speculation support.
func (s *Sim) NewExec(m *mach.Machine) *Exec {
	m.JournalOn = s.BS.Spec
	x := &Exec{M: m, sim: s, fr: make([]uint64, s.frameSize), lastB: -1,
		noTrans: s.Opts.NoTranslate}
	x.spaces = make([]*mach.Space, len(s.Spec.Spaces))
	for i, sp := range s.Spec.Spaces {
		x.spaces[i] = m.MustSpace(sp.Name)
	}
	return x
}

// Work returns the accumulated deterministic work units (compiled node
// executions plus record publish costs).
func (x *Exec) Work() uint64 { return x.work }

// Sim returns the simulator this context executes.
func (x *Exec) Sim() *Sim { return x.sim }

// runSegs executes segments [lo, hi) of a unit with fault diversion to the
// exception segment and nullify (predication) short-circuiting.
func (x *Exec) runSegs(u *unit, lo, hi int32) {
	for i := lo; i < hi; i++ {
		sg := &u.segs[i]
		if x.fault != mach.FaultNone {
			if u.excIdx >= i && u.excIdx < hi {
				i = u.excIdx
				sg = &u.segs[i]
			} else {
				return
			}
		} else if x.nullify && !sg.exc {
			return
		}
		sg.run(x)
	}
}

// publish copies the working state into the record: the fixed header plus
// the buildset-visible fields. Its cost scales with informational detail —
// the "many additional stores" of the paper's §V-E analysis.
func (x *Exec) publish(rec *Record) {
	rec.Ctx = x.M.CtxID
	rec.PC = x.pc
	rec.PhysPC = x.physPC
	rec.NextPC = x.nextPC
	rec.InstrBits = x.bits
	rec.InstrID = x.instrID
	rec.Fault = x.fault
	rec.Nullified = x.nullify
	pub := x.sim.pubFr
	if len(pub) == 0 {
		// Min-visibility buildsets publish only the fixed header; skip the
		// value loop (and any Vals storage management) entirely.
		rec.Vals = rec.Vals[:0]
		x.work += uint64(x.sim.pubWork)
		return
	}
	if cap(rec.Vals) < len(pub) {
		rec.Vals = x.arenaVals(len(pub))
	} else {
		rec.Vals = rec.Vals[:len(pub)]
	}
	for i, fs := range pub {
		rec.Vals[i] = x.fr[fs]
	}
	x.work += uint64(x.sim.pubWork)
}

// arenaVals carves an n-slot value buffer out of the Exec's arena, so
// records that must grow their Vals do not pay one allocation each. The
// returned slice is full-length and capacity-clipped: appends by a consumer
// can never bleed into a neighbouring record's values.
func (x *Exec) arenaVals(n int) []uint64 {
	const arenaChunk = 4096
	if len(x.varena)+n > cap(x.varena) {
		c := arenaChunk
		if n > c {
			c = n
		}
		x.varena = make([]uint64, 0, c)
	}
	lo := len(x.varena)
	x.varena = x.varena[:lo+n]
	return x.varena[lo : lo+n : lo+n]
}

// importRec loads the working state from a record at a Step-interface call
// boundary; the timing simulator may have modified any visible value in
// between (that is the point of high semantic detail). Hidden frame storage
// does not survive across entrypoints.
func (x *Exec) importRec(rec *Record) {
	x.pc = rec.PC
	x.physPC = rec.PhysPC
	x.nextPC = rec.NextPC
	x.bits = rec.InstrBits
	x.instrID = rec.InstrID
	x.fault = rec.Fault
	x.nullify = rec.Nullified
	for i := range x.fr {
		x.fr[i] = 0
	}
	pub := x.sim.pubFr
	if len(rec.Vals) == len(pub) {
		for i, fs := range pub {
			x.fr[fs] = rec.Vals[i]
		}
	}
	x.work += uint64(x.sim.pubWork)
}

func (x *Exec) fetchBits() {
	v, f := x.M.Mem.Load(x.physPC, x.sim.Spec.InstrSize)
	if f != mach.FaultNone {
		x.fault = f
		return
	}
	x.bits = uint32(v)
}

func (x *Exec) decode() *unit {
	id := x.sim.dec.decode(x.bits)
	if id < 0 {
		x.fault = mach.FaultIllegal
		x.instrID = undecoded
		return x.sim.faultUnit
	}
	x.instrID = uint16(id)
	return x.sim.genUnits[id]
}

// commit retires the instruction: advances the architectural PC and the
// retired-instruction counter. Faulting (or halting) instructions do not
// retire.
func (x *Exec) commit() {
	if x.fault != mach.FaultNone {
		return
	}
	x.M.PC = x.nextPC
	x.M.Instret++
}

func (x *Exec) initInstr(pc uint64) {
	x.pc = pc
	x.physPC = pc
	x.nextPC = pc + x.sim.instrSize
	x.bits = 0
	x.instrID = undecoded
	x.fault = mach.FaultNone
	x.nullify = false
}

// ExecOne executes one instruction at the machine's PC through the One
// (call-per-instruction) interface, publishing into rec. It reports false
// when the machine has halted (or a fault stopped execution).
func (x *Exec) ExecOne(rec *Record) bool {
	if !x.noTrans {
		return x.execOneTranslated(rec)
	}
	return x.execOneDynamic(rec)
}

func (x *Exec) execOneDynamic(rec *Record) bool {
	x.initInstr(x.M.PC)
	var u *unit
	for _, ps := range x.sim.preSteps {
		if x.fault != mach.FaultNone {
			break
		}
		if ps.run != nil {
			ps.run(x)
		}
		if ps.fetch {
			x.fetchBits()
		}
	}
	if x.fault == mach.FaultNone {
		if x.sim.Spec.FetchStep == x.sim.Spec.DecodeStep && !x.fetchedInPre() {
			x.fetchBits()
		}
		if x.fault == mach.FaultNone {
			u = x.decode()
		}
	}
	if u == nil {
		u = x.sim.faultUnit
	}
	x.runSegs(u, 0, int32(len(u.segs)))
	x.work += uint64(u.work)
	x.publish(rec)
	x.commit()
	return x.fault == mach.FaultNone
}

// fetchedInPre reports whether the pre-step sequence already fetched.
func (x *Exec) fetchedInPre() bool {
	for _, ps := range x.sim.preSteps {
		if ps.fetch {
			return true
		}
	}
	return false
}

func (x *Exec) execOneTranslated(rec *Record) bool {
	pc := x.M.PC
	u := x.transUnit(pc)
	if u == nil {
		// Fetch fault or undecodable instruction: take the dynamic path,
		// which raises and records the fault.
		return x.execOneDynamic(rec)
	}
	x.pc = pc
	x.physPC = u.physPC
	x.nextPC = u.fall
	x.bits = u.bits
	x.instrID = u.id
	x.fault = mach.FaultNone
	x.nullify = false
	for _, ps := range x.sim.preSteps {
		if ps.run != nil {
			ps.run(x)
		}
	}
	if x.fault == mach.FaultNone && !x.nullify {
		// Inline segment dispatch (see ExecBlock): the runSegs entry checks
		// cannot fire, so the common path is one closure call plus one
		// combined check per segment; a mid-unit fault or nullification
		// (rare) resumes through runSegs for exception diversion.
		segs := u.segs
		for i := range segs {
			segs[i].run(x)
			if x.fault != mach.FaultNone || x.nullify {
				x.runSegs(u, int32(i+1), int32(len(segs)))
				break
			}
		}
	} else {
		x.runSegs(u, 0, int32(len(u.segs)))
	}
	x.work += uint64(u.work)
	x.publish(rec)
	x.commit()
	return x.fault == mach.FaultNone
}

// transUnit returns the translated unit at pc, translating on miss. nil
// means the instruction cannot be fetched or decoded. The lookup order is
// first-level (private direct-map table, epoch/generation-validated), then
// the Sim's shared cache (bits-validated), then a fresh translation
// published to both levels.
func (x *Exec) transUnit(pc uint64) *unit {
	t := &x.utab
	if t.slots == nil {
		t.init(x.sim.Opts.CacheCap)
	}
	mem := x.M.Mem
	s := &t.slots[t.idx(pc)]
	if s.u != nil && s.pc == pc {
		// Epoch first: no store has touched any code page, so the cached
		// unit is valid without even walking to pc's page.
		cg := mem.CodeGen()
		if s.epoch == cg {
			x.stats.UnitL1Hits++
			return s.u
		}
		if s.gen == mem.Gen(pc) {
			s.epoch = cg
			x.stats.UnitL1Hits++
			return s.u
		}
		x.stats.UnitL1GenEvictions++
	} else if s.u != nil {
		x.stats.UnitL1Conflicts++
	}
	size := x.sim.Spec.InstrSize
	v, gen, f := mem.LoadGen(pc, size)
	if f != mach.FaultNone {
		return nil
	}
	bits := uint32(v)
	u := x.sim.shared.lookupUnit(pc, bits)
	if u == nil {
		id := x.sim.dec.decode(bits)
		if id < 0 {
			return nil
		}
		in := x.sim.Spec.Instrs[id]
		u = x.sim.translate(in, pc, bits)
		x.stats.UnitTranslations++
		x.sim.shared.insertUnit(pc, u)
	} else {
		x.stats.UnitSharedHits++
	}
	if pc&uint64(mach.PageSize()-1)+uint64(size) > uint64(mach.PageSize()) {
		// A fetch straddling a page boundary is validated by a single
		// page generation, which cannot witness stores to the second
		// page; leave it uncached rather than risk staleness.
		return u
	}
	// Mark pc's page as code BEFORE capturing the epoch, so every later
	// store to it is guaranteed to advance the epoch this slot records.
	mem.MarkCode(pc)
	*s = uslot{pc: pc, gen: gen, epoch: mem.CodeGen(), u: u}
	return u
}

// translate compiles an instruction specialized for a fixed PC and
// encoding: the engine's analogue of the paper's binary translation.
func (s *Sim) translate(in *lis.Instr, pc uint64, bits uint32) *unit {
	ops := buildOps(s.Spec, in)
	li := analyzeLiveness(s.BS, ops, true)
	if s.Opts.NoDCE {
		li = liveAll(ops)
	}
	u := s.compileUnit(in, ops, li, &transCtx{pc: pc, bits: bits})
	u.pc = pc
	u.physPC = pc
	u.bits = bits
	u.id = uint16(in.ID)
	u.fall = pc + s.instrSize
	return u
}

// StepCall executes one entrypoint of a Step-interface buildset. The caller
// owns the record across the instruction's calls: set rec.PC before
// entrypoint 0, then call each entrypoint in order. Between calls the
// timing simulator may read and modify any visible value — that is the
// semantic control high-detail interfaces exist for.
func (x *Exec) StepCall(ep int, rec *Record) {
	s := x.sim
	if ep == 0 {
		x.initInstr(rec.PC)
		for i := range x.fr {
			x.fr[i] = 0
		}
	} else {
		x.importRec(rec)
	}
	for _, ps := range s.preSteps {
		if s.epOf[ps.step] != ep || x.fault != mach.FaultNone {
			continue
		}
		if ps.run != nil {
			ps.run(x)
		}
		if ps.fetch {
			x.fetchBits()
		}
	}
	var u *unit
	if s.hasDecode[ep] {
		if x.fault == mach.FaultNone {
			if s.Spec.FetchStep == s.Spec.DecodeStep && !x.fetchedInPre() {
				x.fetchBits()
			}
		}
		if x.fault == mach.FaultNone {
			u = x.decode()
		} else {
			u = s.faultUnit
		}
	} else if x.instrID != undecoded && int(x.instrID) < len(s.genUnits) {
		u = s.genUnits[x.instrID]
	} else {
		u = s.faultUnit
	}
	x.runSegs(u, u.epLo[ep], u.epHi[ep])
	for i := u.epLo[ep]; i < u.epHi[ep]; i++ {
		x.work += uint64(u.segs[i].work)
	}
	x.publish(rec)
	if ep == s.lastEp {
		x.commit()
	}
}

// ExecOneStepwise drives all entrypoints of a Step buildset in order for
// the instruction at the machine's PC — the convenience path for drivers
// that do not interleave instructions.
func (x *Exec) ExecOneStepwise(rec *Record) bool {
	rec.PC = x.M.PC
	for ep := range x.sim.BS.Entrypoints {
		x.StepCall(ep, rec)
	}
	return rec.Fault == mach.FaultNone
}
