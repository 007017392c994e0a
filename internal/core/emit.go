package core

import (
	"fmt"
	"sort"
	"strings"

	"singlespec/internal/lis"
)

// This file renders the code the engine derives for a buildset as
// compilable Go source — the paper's Figures 3 and 4 made executable. The
// same per-instruction specialization the closure compiler performs
// (liveness-driven dead-code elimination, hidden fields as private storage,
// per-entrypoint slicing) is emitted as one function per instruction per
// entrypoint, operating on package-level working state:
//
//	f_<name>   uint64  — frame storage for each non-builtin field
//	diPC, diPhysPC, diNextPC uint64; diBits uint32; diID uint16
//	diFault    uint8   — mach.Fault value
//	diNullify  bool
//
// Control flow mirrors Exec.runSegs exactly: each step segment is preceded
// by a boundary that diverts a pending fault to the exception segment (or
// out of the call) and stops a nullified instruction, and fault-capable
// statements are followed by a guard that jumps to the next boundary. Pure
// builtins and the guarded operators (division, remainder, shifts by a
// non-constant amount) are calls into lis, the functions EvalPureBuiltin and
// EvalBinaryOp evaluate with; the other helpers emitted code references
// (b2u, tern, ldU, spRead, doSyscall, ...) come from the AOT runner harness
// (internal/aot), which runs on mach and sysemu like the interpreter.
// EmitSpecialized output is also golden-tested as text.

// RunnerConv is the ABI knowledge a generated runner needs beyond the spec:
// where syscall arguments live and the program memory layout. It mirrors
// isa.Convention without importing the isa package (which imports core's
// sibling lis only, keeping the dependency direction intact).
type RunnerConv struct {
	SyscallNum int
	Args       []int
	Ret        int
	Stack      int
	HeapBase   uint64
	StackTop   uint64
}

// EmitSpecialized renders the specialized per-instruction functions for
// this buildset. instrName restricts output to one instruction ("" emits
// all). The output is the instruction-function portion of the full runner
// source EmitRunner assembles.
func (s *Sim) EmitSpecialized(instrName string) string {
	var b strings.Builder
	for _, in := range s.Spec.Instrs {
		if instrName != "" && in.Name != instrName {
			continue
		}
		s.emitInstrFns(&b, in)
	}
	return b.String()
}

// emitInstrFns emits one function per entrypoint for in.
func (s *Sim) emitInstrFns(b *strings.Builder, in *lis.Instr) {
	ops := buildOps(s.Spec, in)
	li := analyzeLiveness(s.BS, ops, false)
	if s.Opts.NoDCE {
		li = liveAll(ops)
	}
	fmt.Fprintf(b, "// %s: instruction %s under buildset %q\n", s.Spec.Name, in.Name, s.BS.Name)
	// The i_ prefix keeps instruction functions unexported whatever the
	// mnemonic's case: a -buildmode=plugin build exports every capitalized
	// package-main symbol, and the plugin loader must only see the three
	// Plugin* entry points.
	s.emitUnitFns(b, "i_"+sanitizeIdent(in.Name), in, ops, li)
	fmt.Fprintln(b)
}

// emitFaultFns emits the pre-decode fault unit (ALL actions only), used
// when a fetch fault or undecodable encoding leaves no instruction to run.
func (s *Sim) emitFaultFns(b *strings.Builder) {
	var ops []iop
	for st := s.Spec.DecodeStep; st < len(s.Spec.Steps); st++ {
		for _, a := range s.Spec.AllActions[st] {
			ops = append(ops, iop{kind: opAction, step: st, act: a})
		}
	}
	fmt.Fprintf(b, "// %s: pre-decode fault unit under buildset %q\n", s.Spec.Name, s.BS.Name)
	s.emitUnitFns(b, "pdfault", nil, ops, liveAll(ops))
	fmt.Fprintln(b)
}

// emitUnitFns mirrors compileUnit: group live code-producing ops into step
// segments, slice the segment list by entrypoint, and emit one function per
// entrypoint with runSegs-equivalent control flow.
func (s *Sim) emitUnitFns(b *strings.Builder, fnBase string, in *lis.Instr, ops []iop, li *liveInfo) {
	e := &emitter{sim: s, in: in, li: li}
	e.nameLets(ops)
	segs := e.buildSegs(ops)
	excIdx := -1
	for i, sg := range segs {
		if sg.exc {
			excIdx = i
		}
	}
	for epi, ep := range s.BS.Entrypoints {
		lo, hi := 0, 0
		found := false
		for i, sg := range segs {
			if s.epOf[sg.step] == epi {
				if !found {
					lo = i
					found = true
				}
				hi = i + 1
			}
		}
		fmt.Fprintf(b, "func %s_%s() {\n", fnBase, sanitizeIdent(ep.Name))
		e.emitEpBody(b, ops, segs, epi, lo, hi, excIdx)
		fmt.Fprintf(b, "}\n")
	}
}

type eseg struct {
	step int
	exc  bool
	ops  []int // indices into the unit's ops, in order
}

type emitter struct {
	sim *Sim
	in  *lis.Instr
	li  *liveInfo

	letNames map[*lis.Local]string

	// touched collects the localized hidden fields (sim.localFields) the
	// current function body referenced, so emitEpBody can declare them as
	// zero-initialized locals instead of package globals.
	touched map[string]bool

	// Per-function emission state: body lines (label lines carry a marker
	// prefix) and the set of labels actually targeted by a goto. Go rejects
	// unused labels, so labels are resolved in a second pass.
	lines []string
	used  map[string]bool
}

// nameLets assigns stable Go local names to live let-bindings in op order
// (the same order the closure compiler assigns frame slots).
func (e *emitter) nameLets(ops []iop) {
	e.letNames = make(map[*lis.Local]string)
	n := 0
	var walk func(st lis.Stmt)
	walk = func(st lis.Stmt) {
		switch st := st.(type) {
		case *lis.Block:
			for _, s2 := range st.Stmts {
				walk(s2)
			}
		case *lis.LetStmt:
			if e.li.stmt[st] {
				e.letNames[st.Local] = fmt.Sprintf("l%d_%s", n, sanitizeIdent(st.Name))
				n++
			}
		case *lis.IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		}
	}
	for i, op := range ops {
		if e.li.op[i] && op.kind == opAction {
			walk(op.act.Body)
		}
	}
}

// buildSegs mirrors compileUnit's grouping: one segment per step that has
// at least one live op producing code, in ascending step order.
func (e *emitter) buildSegs(ops []iop) []eseg {
	byStep := make(map[int][]int)
	var order []int
	for i, op := range ops {
		if !e.li.op[i] {
			continue
		}
		if op.kind == opAction && !e.blockProduces(op.act.Body) {
			continue
		}
		if _, seen := byStep[op.step]; !seen {
			order = append(order, op.step)
		}
		byStep[op.step] = append(byStep[op.step], i)
	}
	sort.Ints(order)
	segs := make([]eseg, 0, len(order))
	for _, st := range order {
		segs = append(segs, eseg{step: st, exc: st == e.sim.Spec.ExcStep, ops: byStep[st]})
	}
	return segs
}

// emitEpBody emits the runSegs-equivalent body for segments [lo,hi).
func (e *emitter) emitEpBody(b *strings.Builder, ops []iop, segs []eseg, epi, lo, hi, excIdx int) {
	e.lines = e.lines[:0]
	e.used = make(map[string]bool)
	e.touched = make(map[string]bool)

	// Let declarations for this entrypoint's live let statements.
	var lets []string
	for i := lo; i < hi; i++ {
		for _, oi := range segs[i].ops {
			if ops[oi].kind == opAction {
				e.collectLets(ops[oi].act.Body, &lets)
			}
		}
	}
	if len(lets) > 0 {
		e.linef("var %s uint64", strings.Join(lets, ", "))
		e.linef("_ = %s", lets[len(lets)-1])
	}

	// Eliminated computation at steps of this entrypoint that produced no
	// segment at all (documentation, mirroring the closure compiler's DCE).
	hasSeg := make(map[int]bool)
	for i := lo; i < hi; i++ {
		hasSeg[segs[i].step] = true
	}
	for oi, op := range ops {
		if e.sim.epOf[op.step] == epi && !hasSeg[op.step] {
			e.emitDeadOp(oi, op)
		}
	}

	wrote := len(lets) > 0
	for i := lo; i < hi; i++ {
		wrote = true
		sg := segs[i]
		e.label(fmt.Sprintf("c%d", i))
		divert := "end"
		if excIdx >= i && excIdx < hi {
			divert = fmt.Sprintf("s%d", excIdx)
		}
		e.gotoIf("diFault != 0", divert)
		if !sg.exc {
			e.gotoIf("diNullify", "end")
		}
		e.label(fmt.Sprintf("s%d", i))
		e.linef("// step %s", e.sim.Spec.Steps[sg.step])
		target := "end"
		if i+1 < hi {
			target = fmt.Sprintf("c%d", i+1)
		}
		for _, oi := range sg.ops {
			e.emitOp(oi, ops[oi], target)
		}
	}
	if !wrote && len(e.lines) == 0 {
		e.linef("// (no work for this instruction at this interface call)")
	}
	e.label("end")
	e.linef("return")

	// Localized hidden fields become zero-initialized locals: they never
	// cross the interface, so the runner's global state omits them entirely
	// (cross-block field elimination). Declarations go first; the blank
	// assignment keeps write-only locals compiling.
	if len(e.touched) > 0 {
		var names []string
		for _, f := range e.sim.Spec.Fields {
			if e.touched[f.Name] {
				names = append(names, "f_"+f.Name)
			}
		}
		decl := []string{
			"\t// localized hidden fields (never cross this interface call)",
			"\tvar " + strings.Join(names, ", ") + " uint64",
			"\t" + strings.TrimSuffix(strings.Repeat("_, ", len(names)), ", ") + " = " + strings.Join(names, ", "),
		}
		e.lines = append(decl, e.lines...)
	}
	e.flush(b)
}

func (e *emitter) linef(format string, args ...any) {
	e.lines = append(e.lines, "\t"+fmt.Sprintf(format, args...))
}

// label records a label position; flush keeps it only if targeted.
func (e *emitter) label(name string) {
	e.lines = append(e.lines, "\x00"+name)
}

func (e *emitter) gotoIf(cond, target string) {
	e.used[target] = true
	e.linef("if %s {\n\t\tgoto %s\n\t}", cond, target)
}

// guard emits the post-statement fault check fuse() inserts after
// fault-capable statements.
func (e *emitter) guard(ind, target string) {
	e.used[target] = true
	e.lines = append(e.lines, fmt.Sprintf("%sif diFault != 0 {\n%s\tgoto %s\n%s}", ind, ind, target, ind))
}

func (e *emitter) flush(b *strings.Builder) {
	for _, ln := range e.lines {
		if strings.HasPrefix(ln, "\x00") {
			name := ln[1:]
			if e.used[name] {
				fmt.Fprintf(b, "%s:\n", name)
			}
			continue
		}
		fmt.Fprintln(b, ln)
	}
}

func (e *emitter) collectLets(b *lis.Block, out *[]string) {
	var walk func(st lis.Stmt)
	walk = func(st lis.Stmt) {
		switch st := st.(type) {
		case *lis.Block:
			for _, s2 := range st.Stmts {
				walk(s2)
			}
		case *lis.LetStmt:
			if e.li.stmt[st] {
				*out = append(*out, e.letNames[st.Local])
			}
		case *lis.IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		}
	}
	for _, st := range b.Stmts {
		walk(st)
	}
}

// ---- op emission ----

func (e *emitter) emitDeadOp(oi int, op iop) {
	if e.li.op[oi] {
		if op.kind == opAction {
			e.linef("// eliminated: %s action (%s) — no live statements", e.sim.Spec.Steps[op.step], op.act.Owner)
		}
		return
	}
	switch op.kind {
	case opExtract:
		e.linef("// dead (hidden): %s", op.bind.Op.IdxField.Name)
	case opRead:
		e.linef("// dead (hidden): %s = %s[...]", op.bind.Op.Value.Name, op.bind.Acc.Space.Name)
	case opAction:
		e.linef("// dead: %s action (%s)", e.sim.Spec.Steps[op.step], op.act.Owner)
	}
}

func (e *emitter) emitOp(oi int, op iop, target string) {
	if !e.li.op[oi] {
		e.emitDeadOp(oi, op)
		return
	}
	b := op.bind
	switch op.kind {
	case opExtract:
		src := "0"
		if b.IdxEnc != nil {
			src = e.encStr(b.IdxEnc)
		} else if b.IdxConst != 0 {
			src = fmt.Sprintf("%d", b.IdxConst)
		}
		e.assignFieldLine("\t", b.Op.IdxField, src)
	case opRead:
		sp := b.Acc.Space
		f := b.Op.Value
		idx, isC := e.opIndex(b, sp.Count)
		if isC {
			k := b.IdxConst
			if k == sp.Zero {
				e.assignFieldLine("\t", f, "0")
			} else {
				e.assignFieldLine("\t", f, fmt.Sprintf("regs[%d][%d]", sp.Index, k))
			}
		} else {
			e.assignFieldLine("\t", f, fmt.Sprintf("spRead(%d, int(%s))", sp.Index, idx))
		}
	case opWrite:
		sp := b.Acc.Space
		val := e.readFieldStr(b.Op.Value)
		idx, isC := e.opIndex(b, sp.Count)
		if isC {
			k := b.IdxConst
			if k == sp.Zero {
				e.linef("_ = %s // write to hardwired-zero register dropped", val)
			} else {
				e.linef("regs[%d][%d] = %s", sp.Index, k, val)
			}
		} else {
			e.linef("spWrite(%d, int(%s), %s)", sp.Index, idx, val)
		}
	case opAction:
		e.linef("// %s action (%s)", e.sim.Spec.Steps[op.step], op.act.Owner)
		for _, st := range op.act.Body.Stmts {
			e.emitStmt(st, "\t", target)
		}
	}
}

// opIndex mirrors operandIndex in the dynamic model: a constant for
// constant bindings (unclamped), otherwise the decoded index field clamped
// into the space.
func (e *emitter) opIndex(b *lis.OperandBinding, count int) (string, bool) {
	if b.IdxEnc == nil {
		return fmt.Sprintf("%d", b.IdxConst), true
	}
	f := e.readFieldStr(b.Op.IdxField)
	if count&(count-1) == 0 {
		return fmt.Sprintf("(%s & %d)", f, count-1), false
	}
	return fmt.Sprintf("(%s %% %d)", f, count), false
}

// ---- statement emission ----

func (e *emitter) emitStmt(st lis.Stmt, ind, target string) {
	switch st := st.(type) {
	case *lis.Block:
		for _, s2 := range st.Stmts {
			e.emitStmt(s2, ind, target)
		}
	case *lis.AssignStmt:
		if !e.li.stmt[st] {
			e.lines = append(e.lines, fmt.Sprintf("%s// dead (hidden): %s = ...", ind, st.Name))
			return
		}
		rhs := e.exprStr(st.RHS)
		if st.Ref == lis.RefField {
			e.assignFieldLine(ind, st.Sym.(*lis.Field), rhs)
		} else {
			e.lines = append(e.lines, fmt.Sprintf("%s%s = %s", ind, e.letNames[st.Sym.(*lis.Local)], rhs))
		}
		if exprHasEffect(st.RHS) {
			e.guard(ind, target)
		}
	case *lis.LetStmt:
		if !e.li.stmt[st] {
			e.lines = append(e.lines, fmt.Sprintf("%s// dead: %s := ...", ind, st.Name))
			return
		}
		e.lines = append(e.lines, fmt.Sprintf("%s%s = %s", ind, e.letNames[st.Local], e.exprStr(st.RHS)))
		if exprHasEffect(st.RHS) {
			e.guard(ind, target)
		}
	case *lis.IfStmt:
		if !e.li.stmt[st] {
			e.lines = append(e.lines, ind+"// dead: if ... { ... }")
			return
		}
		if cv, ok := e.exprConst(st.Cond); ok {
			// The compiler folds constant conditions to the selected branch.
			if cv != 0 {
				for _, s2 := range st.Then.Stmts {
					e.emitStmt(s2, ind, target)
				}
			} else if st.Else != nil && e.li.stmt[st.Else] {
				e.emitStmt(st.Else, ind, target)
			}
			return
		}
		e.lines = append(e.lines, fmt.Sprintf("%sif %s != 0 {", ind, e.exprStr(st.Cond)))
		for _, s2 := range st.Then.Stmts {
			e.emitStmt(s2, ind+"\t", target)
		}
		if st.Else != nil && e.li.stmt[st.Else] {
			e.lines = append(e.lines, ind+"} else {")
			e.emitStmt(st.Else, ind+"\t", target)
		}
		e.lines = append(e.lines, ind+"}")
		if e.stmtCanFault(st) {
			e.guard(ind, target)
		}
	case *lis.CallStmt:
		b := st.Builtin
		switch {
		case b.Kind == lis.BuiltinStore:
			e.lines = append(e.lines, fmt.Sprintf("%sstV(%s, %s, %d)",
				ind, e.exprStr(st.Args[0]), e.exprStr(st.Args[1]), b.Size))
		case b.Name == "syscall":
			e.lines = append(e.lines, ind+"doSyscall()")
		case b.Name == "halt":
			e.lines = append(e.lines, fmt.Sprintf("%sdoHalt(%s)", ind, e.exprStr(st.Args[0])))
		}
		e.guard(ind, target)
	}
}

// stmtCanFault mirrors cstmt.canFault for live statements.
func (e *emitter) stmtCanFault(st lis.Stmt) bool {
	switch st := st.(type) {
	case *lis.Block:
		for _, s2 := range st.Stmts {
			if e.li.stmt[s2] && e.stmtCanFault(s2) {
				return true
			}
		}
		return false
	case *lis.AssignStmt:
		return exprHasEffect(st.RHS)
	case *lis.LetStmt:
		return exprHasEffect(st.RHS)
	case *lis.IfStmt:
		elseLive := st.Else != nil && e.li.stmt[st.Else]
		if cv, ok := e.exprConst(st.Cond); ok {
			if cv != 0 {
				return e.stmtCanFault(st.Then)
			}
			return elseLive && e.stmtCanFault(st.Else)
		}
		if e.stmtCanFault(st.Then) || (elseLive && e.stmtCanFault(st.Else)) {
			return true
		}
		return exprHasEffect(st.Cond)
	case *lis.CallStmt:
		return true
	}
	return false
}

// stmtProduces mirrors whether compileStmt yields a non-nil closure.
func (e *emitter) stmtProduces(st lis.Stmt) bool {
	if !e.li.stmt[st] {
		return false
	}
	switch st := st.(type) {
	case *lis.Block:
		return e.blockProduces(st)
	case *lis.IfStmt:
		if cv, ok := e.exprConst(st.Cond); ok {
			if cv != 0 {
				return e.blockProduces(st.Then)
			}
			return st.Else != nil && e.li.stmt[st.Else] && e.stmtProduces(st.Else)
		}
		return true // condition is evaluated even when both branches are empty
	}
	return true
}

func (e *emitter) blockProduces(b *lis.Block) bool {
	for _, st := range b.Stmts {
		if e.stmtProduces(st) {
			return true
		}
	}
	return false
}

// ---- expressions ----

// exprConst mirrors the closure compiler's constant folding (the dynamic
// model: encoding fields and builtins reading working state are not
// constant).
func (e *emitter) exprConst(x lis.Expr) (uint64, bool) {
	switch x := x.(type) {
	case *lis.NumExpr:
		return x.Val, true
	case *lis.IdentExpr:
		if x.Ref == lis.RefConst {
			return x.Sym.(*lis.Const).Val, true
		}
	case *lis.UnaryExpr:
		if v, ok := e.exprConst(x.X); ok {
			return lis.EvalUnaryOp(x.Op, v), true
		}
	case *lis.BinaryExpr:
		l, lok := e.exprConst(x.L)
		r, rok := e.exprConst(x.R)
		if lok && rok {
			return lis.EvalBinaryOp(x.Op, l, r), true
		}
	case *lis.CondExpr:
		if c, ok := e.exprConst(x.C); ok {
			if c != 0 {
				return e.exprConst(x.A)
			}
			return e.exprConst(x.B)
		}
	case *lis.CallExpr:
		if x.Builtin.Kind != lis.BuiltinPure {
			return 0, false
		}
		vs := make([]uint64, len(x.Args))
		for i, a := range x.Args {
			v, ok := e.exprConst(a)
			if !ok {
				return 0, false
			}
			vs[i] = v
		}
		return lis.EvalPureBuiltin(x.Builtin, vs), true
	}
	return 0, false
}

func (e *emitter) exprStr(x lis.Expr) string {
	if v, ok := e.exprConst(x); ok {
		return fmtNum(v)
	}
	switch x := x.(type) {
	case *lis.IdentExpr:
		switch x.Ref {
		case lis.RefLocal:
			return e.letNames[x.Sym.(*lis.Local)]
		case lis.RefEncoding:
			return e.encStr(e.in.Format.Field(x.Name))
		case lis.RefField:
			return e.readFieldStr(x.Sym.(*lis.Field))
		}
		return x.Name
	case *lis.UnaryExpr:
		switch x.Op {
		case lis.OpNeg:
			return "-(" + e.exprStr(x.X) + ")"
		case lis.OpInv:
			return "^(" + e.exprStr(x.X) + ")"
		default: // OpNot
			return "b2u((" + e.exprStr(x.X) + ") == 0)"
		}
	case *lis.BinaryExpr:
		return e.binaryStr(x)
	case *lis.CondExpr:
		c, a, b := e.exprStr(x.C), e.exprStr(x.A), e.exprStr(x.B)
		if exprHasEffect(x.A) || exprHasEffect(x.B) {
			// Only the selected arm may evaluate (its effects must not fire
			// otherwise), matching the compiled closure's laziness.
			return fmt.Sprintf("func() uint64 { if %s != 0 { return %s }; return %s }()", c, a, b)
		}
		return fmt.Sprintf("tern(%s, %s, %s)", c, a, b)
	case *lis.CallExpr:
		b := x.Builtin
		switch b.Kind {
		case lis.BuiltinPure:
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = e.exprStr(a)
			}
			return fmt.Sprintf("lis.%s(%s)", b.FuncName(), strings.Join(args, ", "))
		case lis.BuiltinLoad:
			fn := "ldU"
			if b.Signed {
				fn = "ldS"
			}
			return fmt.Sprintf("%s(%s, %d)", fn, e.exprStr(x.Args[0]), b.Size)
		}
	}
	return "0 /* unreachable */"
}

func (e *emitter) binaryStr(x *lis.BinaryExpr) string {
	l, r := e.exprStr(x.L), e.exprStr(x.R)
	switch x.Op {
	case lis.OpAdd:
		return "(" + l + " + " + r + ")"
	case lis.OpSub:
		return "(" + l + " - " + r + ")"
	case lis.OpMul:
		return "(" + l + " * " + r + ")"
	case lis.OpAnd:
		return "(" + l + " & " + r + ")"
	case lis.OpOr:
		return "(" + l + " | " + r + ")"
	case lis.OpXor:
		return "(" + l + " ^ " + r + ")"
	case lis.OpDiv:
		return "lis.Div(" + l + ", " + r + ")"
	case lis.OpRem:
		return "lis.Rem(" + l + ", " + r + ")"
	case lis.OpShl:
		if k, ok := e.exprConst(x.R); ok && k < 64 {
			return fmt.Sprintf("(%s << %d)", l, k)
		}
		return "lis.Shl(" + l + ", " + r + ")"
	case lis.OpShr:
		if k, ok := e.exprConst(x.R); ok && k < 64 {
			return fmt.Sprintf("(%s >> %d)", l, k)
		}
		return "lis.Shr(" + l + ", " + r + ")"
	case lis.OpEq:
		return "b2u(" + l + " == " + r + ")"
	case lis.OpNe:
		return "b2u(" + l + " != " + r + ")"
	case lis.OpLt:
		return "b2u(" + l + " < " + r + ")"
	case lis.OpLe:
		return "b2u(" + l + " <= " + r + ")"
	case lis.OpGt:
		return "b2u(" + l + " > " + r + ")"
	case lis.OpGe:
		return "b2u(" + l + " >= " + r + ")"
	case lis.OpLand:
		return "b2u(" + l + " != 0 && " + r + " != 0)"
	case lis.OpLor:
		return "b2u(" + l + " != 0 || " + r + " != 0)"
	}
	return "0 /* unreachable */"
}

// encStr extracts an encoding bitfield, matching encValue's arithmetic.
func (e *emitter) encStr(ff *lis.FmtField) string {
	mask := uint32(1)<<uint(ff.Width()) - 1
	if ff.Lo == 0 {
		return fmt.Sprintf("uint64(diBits&%#x)", mask)
	}
	return fmt.Sprintf("uint64(diBits>>%d&%#x)", ff.Lo, mask)
}

// readFieldStr mirrors readField in the dynamic model.
func (e *emitter) readFieldStr(f *lis.Field) string {
	if f.Builtin {
		switch f.Name {
		case lis.FieldPC:
			return "diPC"
		case lis.FieldPhysPC:
			return "diPhysPC"
		case lis.FieldInstrBits:
			return "uint64(diBits)"
		case lis.FieldNextPC:
			return "diNextPC"
		case lis.FieldFault:
			return "uint64(diFault)"
		case lis.FieldCtx:
			return "uint64(0)" // single-context runner
		case lis.FieldOpcode:
			return "uint64(diID)"
		case lis.FieldNullify:
			return "b2u(diNullify)"
		}
	}
	if e.sim.localFields[f.Name] {
		e.touched[f.Name] = true
	}
	return "f_" + f.Name
}

// assignFieldLine mirrors assignField: builtins update the working header,
// non-builtin fields mask to their declared width on every store.
func (e *emitter) assignFieldLine(ind string, f *lis.Field, rhs string) {
	if f.Builtin {
		switch f.Name {
		case lis.FieldPhysPC:
			e.lines = append(e.lines, fmt.Sprintf("%sdiPhysPC = %s", ind, rhs))
			return
		case lis.FieldNextPC:
			e.lines = append(e.lines, fmt.Sprintf("%sdiNextPC = %s", ind, rhs))
			return
		case lis.FieldFault:
			e.lines = append(e.lines, fmt.Sprintf("%sdiFault = uint8(%s)", ind, rhs))
			return
		case lis.FieldNullify:
			e.lines = append(e.lines, fmt.Sprintf("%sdiNullify = (%s) != 0", ind, rhs))
			return
		}
	}
	if e.sim.localFields[f.Name] {
		e.touched[f.Name] = true
	}
	if f.Width < 64 {
		e.lines = append(e.lines, fmt.Sprintf("%sf_%s = %s & %#x", ind, f.Name, rhs, uint64(1)<<uint(f.Width)-1))
		return
	}
	e.lines = append(e.lines, fmt.Sprintf("%sf_%s = %s", ind, f.Name, rhs))
}

func fmtNum(v uint64) string {
	if v > 9 {
		return fmt.Sprintf("%#x", v)
	}
	return fmt.Sprintf("%d", v)
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ---- full runner source ----

// EmitRunner assembles the generated half of an AOT runner for this
// (spec, buildset) pair: constants describing the interface, the decode
// table, working-state globals, the specialized instruction functions, the
// pre-decode fault unit, and the dispatch tables. The static harness half
// (the interface drivers, the frame protocol, and the helpers the generated
// code calls) lives in internal/aot and is compiled into the same package
// main, inside this module, on the mach and sysemu substrate the
// interpreter runs on.
func (s *Sim) EmitRunner(rc RunnerConv) (string, error) {
	spec := s.Spec
	if len(spec.Instrs) == 0 {
		return "", fmt.Errorf("core: emit runner: spec %q has no instructions", spec.Name)
	}
	if spec.FetchStep >= spec.DecodeStep {
		return "", fmt.Errorf("core: emit runner: spec %q fetches at/after decode (step %d >= %d), which the AOT driver does not model",
			spec.Name, spec.FetchStep, spec.DecodeStep)
	}
	for st := 0; st < spec.DecodeStep; st++ {
		if len(spec.AllActions[st]) > 0 {
			return "", fmt.Errorf("core: emit runner: spec %q has ALL actions at pre-decode step %q; the AOT driver only models the engine fetch before decode",
				spec.Name, spec.Steps[st])
		}
	}
	if len(rc.Args) == 0 {
		return "", fmt.Errorf("core: emit runner: convention has no syscall argument registers")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by singlespec for spec %q, buildset %q. DO NOT EDIT.\n", spec.Name, s.BS.Name)
	b.WriteString("package main\n\n")
	b.WriteString("import \"singlespec/internal/lis\"\n\n")
	// Builtins and guarded operators are calls into lis; the blank use keeps
	// the import for a spec none of whose live code calls one.
	b.WriteString("var _ = lis.Div\n\n")

	// Interface constants for the harness driver.
	fmt.Fprintf(&b, "const (\n")
	fmt.Fprintf(&b, "\tgSpecName     = %q\n", spec.Name)
	fmt.Fprintf(&b, "\tgBuildsetName = %q\n", s.BS.Name)
	fmt.Fprintf(&b, "\tgInstrSize    = uint64(%d)\n", spec.InstrSize)
	fmt.Fprintf(&b, "\tgBigEndian    = %v\n", spec.Endian == 1)
	fmt.Fprintf(&b, "\tgModeBlock    = %v\n", s.BS.Mode == lis.ModeBlock)
	fmt.Fprintf(&b, "\tgEmitRecs     = %v\n", s.emitRecs)
	fmt.Fprintf(&b, "\tgNumEps       = %d\n", len(s.BS.Entrypoints))
	fmt.Fprintf(&b, "\tgFetchEp      = %d\n", s.epOf[spec.FetchStep])
	fmt.Fprintf(&b, "\tgDecodeEp     = %d\n", s.epOf[spec.DecodeStep])
	fmt.Fprintf(&b, "\tgUndecodedID  = uint16(0x%04x)\n", undecoded)
	fmt.Fprintf(&b, "\tgConvSyscallNum = %d\n", rc.SyscallNum)
	fmt.Fprintf(&b, "\tgConvRet        = %d\n", rc.Ret)
	fmt.Fprintf(&b, "\tgConvStack      = %d\n", rc.Stack)
	fmt.Fprintf(&b, "\tgHeapBase       = uint64(%#x)\n", rc.HeapBase)
	fmt.Fprintf(&b, "\tgStackTop       = uint64(%#x)\n", rc.StackTop)
	fmt.Fprintf(&b, ")\n\n")
	fmt.Fprintf(&b, "var gConvArgs = %#v\n\n", rc.Args)

	// Register spaces.
	var counts, zeros []int
	var names []string
	for _, sp := range spec.Spaces {
		counts = append(counts, sp.Count)
		zeros = append(zeros, sp.Zero)
		names = append(names, sp.Name)
	}
	fmt.Fprintf(&b, "var gSpaceCount = %#v\n", counts)
	fmt.Fprintf(&b, "var gSpaceZero = %#v\n", zeros)
	fmt.Fprintf(&b, "var gSpaceName = %#v\n\n", names)

	// Decode table in spec order; linear first-match scan is equivalent to
	// the engine's bucketed decoder (buckets preserve declaration order and
	// every match for bits lies in the probed bucket).
	fmt.Fprintf(&b, "var gDecTab = []struct{ mask, val uint32 }{\n")
	for _, in := range spec.Instrs {
		fmt.Fprintf(&b, "\t{%#x, %#x}, // %s\n", uint32(in.Mask), uint32(in.Value), in.Name)
	}
	fmt.Fprintf(&b, "}\n\n")
	b.WriteString("func gDecode(bits uint32) int {\n")
	b.WriteString("\tfor i := range gDecTab {\n")
	b.WriteString("\t\tif bits&gDecTab[i].mask == gDecTab[i].val {\n\t\t\treturn i\n\t\t}\n\t}\n")
	b.WriteString("\treturn -1\n}\n\n")

	// Working state: the record header plus frame storage for every
	// non-builtin field. Frame slots persist across instructions exactly
	// like the interpreter's frame (read-before-write staleness included).
	b.WriteString("var (\n")
	b.WriteString("\tdiPC      uint64\n")
	b.WriteString("\tdiPhysPC  uint64\n")
	b.WriteString("\tdiNextPC  uint64\n")
	b.WriteString("\tdiBits    uint32\n")
	b.WriteString("\tdiID      uint16\n")
	b.WriteString("\tdiFault   uint8\n")
	b.WriteString("\tdiNullify bool\n")
	b.WriteString(")\n\n")
	// Localized hidden fields (see localize.go) never appear here: they are
	// declared as zero-initialized locals inside each specialized function,
	// so the generated state carries only fields that can cross an
	// instruction or interface-call boundary.
	var frameFields, hiddenFields []*lis.Field
	for _, f := range spec.Fields {
		if f.Builtin || s.localFields[f.Name] {
			continue
		}
		frameFields = append(frameFields, f)
		if !s.BS.Visible(f) {
			hiddenFields = append(hiddenFields, f)
		}
	}
	if len(frameFields) > 0 {
		b.WriteString("var (\n")
		for _, f := range frameFields {
			fmt.Fprintf(&b, "\tf_%s uint64\n", f.Name)
		}
		b.WriteString(")\n\n")
	}
	b.WriteString("func gClearFields() {\n")
	for _, f := range frameFields {
		fmt.Fprintf(&b, "\tf_%s = 0\n", f.Name)
	}
	b.WriteString("}\n\n")
	b.WriteString("func gClearHidden() {\n")
	for _, f := range hiddenFields {
		fmt.Fprintf(&b, "\tf_%s = 0\n", f.Name)
	}
	b.WriteString("}\n\n")

	// Visible fields in record slot order.
	b.WriteString("var gVisPtrs = []*uint64{")
	for i, name := range s.Layout.FieldNames() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "&f_%s", name)
	}
	b.WriteString("}\n\n")
	b.WriteString("var gVisNames = []string{")
	for i, name := range s.Layout.FieldNames() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", name)
	}
	b.WriteString("}\n\n")

	// Specialized instruction functions and the pre-decode fault unit.
	b.WriteString(s.EmitSpecialized(""))
	s.emitFaultFns(&b)

	// Dispatch tables: [instruction ID][entrypoint].
	b.WriteString("var gInstrFns = [][]func(){\n")
	for _, in := range spec.Instrs {
		b.WriteString("\t{")
		for ei, ep := range s.BS.Entrypoints {
			if ei > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "i_%s_%s", sanitizeIdent(in.Name), sanitizeIdent(ep.Name))
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n\n")
	b.WriteString("var gFaultFns = []func(){")
	for ei, ep := range s.BS.Entrypoints {
		if ei > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "pdfault_%s", sanitizeIdent(ep.Name))
	}
	b.WriteString("}\n\n")

	// Superblock metadata: which instructions end a block (control transfers
	// and barriers, matching the interpreter's block boundaries) and the
	// block-length cap shared with the interpreter translator.
	fmt.Fprintf(&b, "const gMaxBlockLen = %d\n\n", s.Opts.MaxBlockLen)
	b.WriteString("var gInstrCTI = []bool{\n")
	for _, in := range spec.Instrs {
		fmt.Fprintf(&b, "\t%v, // %s\n", in.CTI || in.Barrier, in.Name)
	}
	b.WriteString("}\n")

	return b.String(), nil
}
