package lis

import (
	"fmt"

	"singlespec/internal/mach"
)

// analyze resolves a parsed rawFile into a Spec, reporting all diagnostics
// it can find rather than stopping at the first.
func analyze(f *rawFile, instrs []rawInstr, errs *ErrorList) (*Spec, error) {
	a := &analyzer{errs: errs, spec: &Spec{
		fieldByName: make(map[string]*Field),
		spaceByName: make(map[string]*SpaceDecl),
		stepIndex:   make(map[string]int),
		instrByName: make(map[string]*Instr),
		bsByName:    make(map[string]*Buildset),
	}}
	a.file(f, instrs)
	if len(*errs) > 0 {
		return nil, *errs
	}
	return a.spec, nil
}

type analyzer struct {
	errs *ErrorList
	spec *Spec

	consts    map[string]*Const
	formats   map[string]*Format
	classes   map[string]*Class
	accessors map[string]*Accessor
	opnames   map[string]*OperandName
	// members maps a class to the instructions carrying it.
	members map[*Class][]*Instr
	// valueOwner maps an operand value field back to its operandname
	// (value fields are dedicated).
	valueOwner map[*Field]*OperandName
}

func (a *analyzer) errorf(pos Pos, format string, args ...any) {
	*a.errs = append(*a.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Read-only builtin fields (set by the engine, never by action code).
var readOnlyBuiltins = map[string]bool{
	FieldPC: true, FieldInstrBits: true, FieldCtx: true, FieldOpcode: true,
}

func (a *analyzer) file(f *rawFile, rawInstrs []rawInstr) {
	s := a.spec
	s.Name = f.name
	if s.Name == "" {
		a.errorf(Pos{Line: 1, Col: 1}, "missing 'isa \"name\";' declaration")
	}
	s.Word = f.word
	if s.Word != 32 && s.Word != 64 {
		a.errorf(f.namePos, "word must be 32 or 64, got %d", s.Word)
		s.Word = 64
	}
	switch f.endian {
	case "little", "":
		s.Endian = mach.LittleEndian
	case "big":
		s.Endian = mach.BigEndian
	default:
		a.errorf(f.endianPos, "endian must be 'little' or 'big', got '%s'", f.endian)
	}
	s.InstrSize = f.instrSize
	if s.InstrSize != 2 && s.InstrSize != 4 && s.InstrSize != 8 {
		a.errorf(f.namePos, "instrsize must be 2, 4, or 8 bytes, got %d", s.InstrSize)
		s.InstrSize = 4
	}

	// Steps.
	if len(f.steps) == 0 {
		a.errorf(f.namePos, "no 'step' declaration")
	}
	for _, st := range f.steps {
		if _, dup := s.stepIndex[st.name]; dup {
			a.errorf(st.pos, "duplicate step '%s'", st.name)
			continue
		}
		s.stepIndex[st.name] = len(s.Steps)
		s.Steps = append(s.Steps, st.name)
	}
	s.DecodeStep = -1
	if f.decodeStp.name == "" {
		a.errorf(f.namePos, "missing 'decodestep' declaration")
	} else if i, ok := s.stepIndex[f.decodeStp.name]; ok {
		s.DecodeStep = i
	} else {
		a.errorf(f.decodeStp.pos, "decodestep '%s' is not a declared step", f.decodeStp.name)
	}
	s.FetchStep = s.DecodeStep
	if f.fetchStp.name != "" {
		if i, ok := s.stepIndex[f.fetchStp.name]; ok {
			s.FetchStep = i
			if i > s.DecodeStep {
				a.errorf(f.fetchStp.pos, "fetchstep '%s' must not come after the decode step", f.fetchStp.name)
			}
		} else {
			a.errorf(f.fetchStp.pos, "fetchstep '%s' is not a declared step", f.fetchStp.name)
		}
	}
	s.ExcStep = len(s.Steps) - 1
	if f.excStp.name != "" {
		if i, ok := s.stepIndex[f.excStp.name]; ok {
			s.ExcStep = i
		} else {
			a.errorf(f.excStp.pos, "excstep '%s' is not a declared step", f.excStp.name)
		}
	}

	// Spaces.
	for _, rs := range f.spaces {
		if s.spaceByName[rs.name] != nil {
			a.errorf(rs.pos, "duplicate space '%s'", rs.name)
			continue
		}
		if rs.count <= 0 || rs.width <= 0 || rs.width > 64 {
			a.errorf(rs.pos, "space '%s': count must be positive and width in 1..64", rs.name)
			continue
		}
		if rs.zero >= rs.count {
			a.errorf(rs.pos, "space '%s': zero register %d out of range", rs.name, rs.zero)
			continue
		}
		sp := &SpaceDecl{Pos: rs.pos, Name: rs.name, Count: rs.count, Width: rs.width, Zero: rs.zero, Index: len(s.Spaces)}
		s.Spaces = append(s.Spaces, sp)
		s.spaceByName[rs.name] = sp
	}

	// Builtin fields.
	for _, bf := range []struct {
		name  string
		width int
	}{
		{FieldPC, 64}, {FieldPhysPC, 64}, {FieldInstrBits, 32},
		{FieldNextPC, 64}, {FieldFault, 8}, {FieldCtx, 16},
		{FieldOpcode, 16}, {FieldNullify, 1},
	} {
		a.addField(&Field{Name: bf.name, Width: bf.width, Builtin: true})
	}

	// Predefined constants (fault codes match internal/mach).
	a.consts = map[string]*Const{
		"FAULT_NONE":    {Name: "FAULT_NONE", Val: uint64(mach.FaultNone)},
		"FAULT_MEMORY":  {Name: "FAULT_MEMORY", Val: uint64(mach.FaultMemory)},
		"FAULT_ILLEGAL": {Name: "FAULT_ILLEGAL", Val: uint64(mach.FaultIllegal)},
		"FAULT_HALT":    {Name: "FAULT_HALT", Val: uint64(mach.FaultHalt)},
		"FAULT_BREAK":   {Name: "FAULT_BREAK", Val: uint64(mach.FaultBreak)},
	}
	for name, c := range a.consts {
		s.Consts = append(s.Consts, c)
		_ = name
	}
	for _, rc := range f.consts {
		if a.consts[rc.name] != nil {
			a.errorf(rc.pos, "duplicate const '%s'", rc.name)
			continue
		}
		v, ok := a.evalConst(rc.val)
		if !ok {
			continue
		}
		c := &Const{Pos: rc.pos, Name: rc.name, Val: v}
		a.consts[rc.name] = c
		s.Consts = append(s.Consts, c)
	}

	// Declared fields.
	for _, rf := range f.fields {
		if s.fieldByName[rf.name] != nil {
			a.errorf(rf.pos, "duplicate field '%s'", rf.name)
			continue
		}
		if a.consts[rf.name] != nil {
			a.errorf(rf.pos, "field '%s' collides with a const", rf.name)
			continue
		}
		if rf.width < 1 || rf.width > 64 {
			a.errorf(rf.pos, "field '%s' width must be in 1..64", rf.name)
			continue
		}
		a.addField(&Field{Pos: rf.pos, Name: rf.name, Width: rf.width})
	}

	// Formats.
	a.formats = make(map[string]*Format)
	for i := range f.formats {
		rf := &f.formats[i]
		if a.formats[rf.name] != nil {
			a.errorf(rf.pos, "duplicate format '%s'", rf.name)
			continue
		}
		fm := &Format{Pos: rf.pos, Name: rf.name, Fields: rf.fields, byName: make(map[string]*FmtField)}
		for _, ff := range rf.fields {
			if fm.byName[ff.Name] != nil {
				a.errorf(ff.Pos, "duplicate bitfield '%s' in format '%s'", ff.Name, rf.name)
				continue
			}
			if ff.Lo < 0 || ff.Hi < ff.Lo || ff.Hi >= s.InstrSize*8 {
				a.errorf(ff.Pos, "bitfield '%s' range [%d:%d] invalid for %d-bit instructions",
					ff.Name, ff.Hi, ff.Lo, s.InstrSize*8)
				continue
			}
			// Encoding-field names must not shadow fields or consts, so
			// identifier resolution inside action bodies is unambiguous.
			if s.fieldByName[ff.Name] != nil || a.consts[ff.Name] != nil {
				a.errorf(ff.Pos, "bitfield '%s' collides with a field or const name", ff.Name)
				continue
			}
			fm.byName[ff.Name] = ff
		}
		a.formats[rf.name] = fm
		s.Formats = append(s.Formats, fm)
	}

	// Classes.
	a.classes = make(map[string]*Class)
	for _, rc := range f.classes {
		if a.classes[rc.name] != nil {
			a.errorf(rc.pos, "duplicate class '%s'", rc.name)
			continue
		}
		c := &Class{Pos: rc.pos, Name: rc.name}
		a.classes[rc.name] = c
		s.Classes = append(s.Classes, c)
	}

	// Accessors.
	a.accessors = make(map[string]*Accessor)
	for _, ra := range f.accessors {
		if a.accessors[ra.name] != nil {
			a.errorf(ra.pos, "duplicate accessor '%s'", ra.name)
			continue
		}
		sp := s.spaceByName[ra.space.name]
		if sp == nil {
			a.errorf(ra.space.pos, "accessor '%s': unknown space '%s'", ra.name, ra.space.name)
			continue
		}
		acc := &Accessor{Pos: ra.pos, Name: ra.name, Space: sp}
		a.accessors[ra.name] = acc
		s.Accs = append(s.Accs, acc)
	}

	// Operand names (+ auto index fields).
	a.opnames = make(map[string]*OperandName)
	a.valueOwner = make(map[*Field]*OperandName)
	for _, ro := range f.opnames {
		if a.opnames[ro.name] != nil {
			a.errorf(ro.pos, "duplicate operandname '%s'", ro.name)
			continue
		}
		on := &OperandName{Pos: ro.pos, Name: ro.name, IsWrite: ro.isWrite}
		on.DecodeStep = s.DecodeStep
		if ro.decodeStep.name != "" {
			idx, ok := s.stepIndex[ro.decodeStep.name]
			if !ok {
				a.errorf(ro.decodeStep.pos, "operandname '%s': unknown decode step '%s'", ro.name, ro.decodeStep.name)
				continue
			}
			if idx != s.DecodeStep {
				a.errorf(ro.decodeStep.pos, "operandname '%s': operand decode must occur at the decode step '%s'",
					ro.name, s.Steps[s.DecodeStep])
			}
			on.DecodeStep = idx
		}
		if idx, ok := s.stepIndex[ro.accessStep.name]; ok {
			on.AccessStep = idx
			if idx < s.DecodeStep {
				a.errorf(ro.accessStep.pos, "operandname '%s': access step precedes decode", ro.name)
			}
		} else {
			a.errorf(ro.accessStep.pos, "operandname '%s': unknown access step '%s'", ro.name, ro.accessStep.name)
			continue
		}
		vf := s.fieldByName[ro.value.name]
		if vf == nil {
			a.errorf(ro.value.pos, "operandname '%s': unknown value field '%s'", ro.name, ro.value.name)
			continue
		}
		if vf.Builtin || vf.Auto {
			a.errorf(ro.value.pos, "operandname '%s': value field must be a declared field", ro.name)
			continue
		}
		if prev := a.valueOwner[vf]; prev != nil {
			a.errorf(ro.value.pos, "field '%s' already carries operand '%s'; value fields are dedicated", vf.Name, prev.Name)
			continue
		}
		on.Value = vf
		a.valueOwner[vf] = on
		idxName := ro.name + "_idx"
		if s.fieldByName[idxName] != nil {
			a.errorf(ro.pos, "auto index field '%s' collides with an existing field", idxName)
			continue
		}
		on.IdxField = &Field{Pos: ro.pos, Name: idxName, Width: 16, Auto: true}
		a.addField(on.IdxField)
		a.opnames[ro.name] = on
		s.OpNames = append(s.OpNames, on)
	}

	// Instructions.
	a.members = make(map[*Class][]*Instr)
	for i := range rawInstrs {
		a.instr(&rawInstrs[i])
	}
	a.checkDecodeOverlap()

	// Operand bindings.
	for _, ro := range f.operands {
		a.operand(&ro)
	}

	// Actions.
	s.AllActions = make([][]*Action, len(s.Steps))
	for i := range f.actions {
		a.action(&f.actions[i])
	}

	// Post-resolution per-instruction checks and attributes.
	for _, in := range s.Instrs {
		a.finishInstr(in)
	}

	// Buildsets.
	for i := range f.buildsets {
		a.buildset(&f.buildsets[i])
	}

	// Asm suffixes.
	if len(f.suffixes) > 1 {
		a.errorf(f.suffixes[1].pos, "at most one asmsuffix declaration is supported")
	}
	if len(f.suffixes) == 1 {
		sx := f.suffixes[0]
		out := &AsmSuffix{Field: sx.field.name}
		seen := map[string]bool{}
		for _, d := range sx.defs {
			if seen[d.name] {
				a.errorf(d.pos, "duplicate asm suffix '%s'", d.name)
				continue
			}
			seen[d.name] = true
			out.Defs = append(out.Defs, SuffixDef{Name: d.name, Val: d.val})
		}
		s.AsmSuffix = out
	}
}

func (a *analyzer) addField(fl *Field) {
	fl.Index = len(a.spec.Fields)
	a.spec.Fields = append(a.spec.Fields, fl)
	a.spec.fieldByName[fl.Name] = fl
}

func (a *analyzer) instr(ri *rawInstr) {
	s := a.spec
	if s.instrByName[ri.name] != nil {
		a.errorf(ri.pos, "duplicate instruction '%s'", ri.name)
		return
	}
	if ri.name == "ALL" {
		a.errorf(ri.pos, "'ALL' is reserved for actions applying to every instruction")
		return
	}
	fm := a.formats[ri.format.name]
	if fm == nil {
		a.errorf(ri.format.pos, "instruction '%s': unknown format '%s'", ri.name, ri.format.name)
		return
	}
	in := &Instr{Pos: ri.pos, Name: ri.name, ID: len(s.Instrs), Format: fm, Asm: ri.asm}
	for _, rc := range ri.classes {
		c := a.classes[rc.name]
		if c == nil {
			a.errorf(rc.pos, "instruction '%s': unknown class '%s'", ri.name, rc.name)
			continue
		}
		in.Classes = append(in.Classes, c)
		a.members[c] = append(a.members[c], in)
	}
	for _, rm := range ri.match {
		ff := fm.Field(rm.field.name)
		if ff == nil {
			a.errorf(rm.field.pos, "instruction '%s': match field '%s' not in format '%s'", ri.name, rm.field.name, fm.Name)
			continue
		}
		if rm.val >= 1<<uint(ff.Width()) {
			a.errorf(rm.field.pos, "instruction '%s': match value %#x does not fit %d-bit field '%s'",
				ri.name, rm.val, ff.Width(), ff.Name)
			continue
		}
		in.Match = append(in.Match, MatchClause{Pos: rm.pos, Field: ff, Val: rm.val})
		fieldMask := uint64(1<<uint(ff.Width())-1) << uint(ff.Lo)
		if in.Mask&fieldMask != 0 {
			a.errorf(rm.pos, "instruction '%s': overlapping match clauses", ri.name)
		}
		in.Mask |= fieldMask
		in.Value |= rm.val << uint(ff.Lo)
	}
	if len(in.Match) == 0 {
		a.errorf(ri.pos, "instruction '%s' has no match clauses", ri.name)
	}
	in.StepActions = make([][]*Action, len(s.Steps))
	s.Instrs = append(s.Instrs, in)
	s.instrByName[ri.name] = in
}

// checkDecodeOverlap reports pairs of instructions whose encodings can both
// match the same instruction word.
func (a *analyzer) checkDecodeOverlap() {
	ins := a.spec.Instrs
	for i := 0; i < len(ins); i++ {
		for j := i + 1; j < len(ins); j++ {
			common := ins[i].Mask & ins[j].Mask
			if ins[i].Value&common == ins[j].Value&common {
				a.errorf(ins[j].Pos, "instructions '%s' and '%s' have overlapping encodings",
					ins[i].Name, ins[j].Name)
			}
		}
	}
}

// targets resolves an action/operand owner name to the set of instructions
// it applies to.
func (a *analyzer) targets(owner rawIdent) ([]*Instr, bool) {
	if owner.name == "ALL" {
		return a.spec.Instrs, true
	}
	if c := a.classes[owner.name]; c != nil {
		return a.members[c], true
	}
	if in := a.spec.instrByName[owner.name]; in != nil {
		return []*Instr{in}, true
	}
	a.errorf(owner.pos, "unknown instruction or class '%s'", owner.name)
	return nil, false
}

func (a *analyzer) operand(ro *rawOperand) {
	ins, ok := a.targets(ro.owner)
	if !ok {
		return
	}
	on := a.opnames[ro.opname.name]
	if on == nil {
		a.errorf(ro.opname.pos, "unknown operandname '%s'", ro.opname.name)
		return
	}
	acc := a.accessors[ro.accessor.name]
	if acc == nil {
		a.errorf(ro.accessor.pos, "unknown accessor '%s'", ro.accessor.name)
		return
	}
	if ro.isConst && int(ro.idxConst) >= acc.Space.Count {
		a.errorf(ro.pos, "constant register index %d out of range for space '%s'", ro.idxConst, acc.Space.Name)
		return
	}
	for _, in := range ins {
		b := &OperandBinding{Pos: ro.pos, Op: on, Acc: acc, IdxConst: int(ro.idxConst)}
		if !ro.isConst {
			ff := in.Format.Field(ro.idxEnc.name)
			if ff == nil {
				a.errorf(ro.idxEnc.pos, "instruction '%s': encoding field '%s' not in format '%s'",
					in.Name, ro.idxEnc.name, in.Format.Name)
				continue
			}
			if 1<<uint(ff.Width()) > acc.Space.Count*2 && ff.Width() > 8 {
				a.errorf(ro.idxEnc.pos, "instruction '%s': %d-bit field '%s' is too wide to index space '%s'",
					in.Name, ff.Width(), ff.Name, acc.Space.Name)
				continue
			}
			b.IdxEnc = ff
		}
		dup := false
		for _, prev := range in.Operands {
			if prev.Op == on {
				a.errorf(ro.pos, "instruction '%s': operand '%s' bound twice", in.Name, on.Name)
				dup = true
			}
		}
		if !dup {
			in.Operands = append(in.Operands, b)
		}
	}
}

func (a *analyzer) action(ra *rawAction) {
	s := a.spec
	stepIdx, ok := s.stepIndex[ra.step.name]
	if !ok {
		a.errorf(ra.step.pos, "unknown step '%s'", ra.step.name)
		return
	}
	ins, ok := a.targets(ra.owner)
	if !ok {
		return
	}
	isALL := ra.owner.name == "ALL"
	if stepIdx < s.DecodeStep && !isALL {
		a.errorf(ra.pos, "action '%s@%s': only ALL actions may run before the decode step",
			ra.owner.name, ra.step.name)
		return
	}
	act := &Action{Pos: ra.pos, Step: stepIdx, Body: ra.body, Override: ra.override, Owner: ra.owner.name}
	if isALL {
		s.AllActions[stepIdx] = append(s.AllActions[stepIdx], act)
	}
	// Resolve the body once; encoding-field references stay symbolic and
	// are validated against every applicable instruction below.
	encRefs := a.resolveBody(ra.body, isALL)
	for _, ref := range encRefs {
		for _, in := range ins {
			if in.Format.Field(ref.Name) == nil {
				a.errorf(ref.Pos, "action '%s@%s': encoding field '%s' not in format '%s' of instruction '%s'",
					ra.owner.name, ra.step.name, ref.Name, in.Format.Name, in.Name)
			}
		}
	}
	for _, in := range ins {
		if act.Override {
			in.StepActions[stepIdx] = in.StepActions[stepIdx][:0]
		} else if ra.owner.name == in.Name {
			for _, prev := range in.StepActions[stepIdx] {
				if prev.Owner == in.Name {
					a.errorf(ra.pos, "instruction '%s' already has an action at step '%s' (use 'override action' to replace)",
						in.Name, ra.step.name)
				}
			}
		}
		in.StepActions[stepIdx] = append(in.StepActions[stepIdx], act)
	}
}

// finishInstr runs per-instruction checks that need all actions and
// operands resolved, and computes the CTI/Barrier attributes.
func (a *analyzer) finishInstr(in *Instr) {
	bound := make(map[*Field]bool)
	for _, b := range in.Operands {
		bound[b.Op.Value] = true
	}
	// An action that assigns an operand value field synthesizes that
	// operand (e.g. literal forms writing the source field from the
	// encoding); treat the field as bound for the read check.
	var markAssigned func(st Stmt)
	markAssigned = func(st Stmt) {
		switch st := st.(type) {
		case *Block:
			for _, s2 := range st.Stmts {
				markAssigned(s2)
			}
		case *AssignStmt:
			if st.Ref == RefField {
				if f := st.Sym.(*Field); a.valueOwner[f] != nil {
					bound[f] = true
				}
			}
		case *IfStmt:
			markAssigned(st.Then)
			if st.Else != nil {
				markAssigned(st.Else)
			}
		}
	}
	for _, acts := range in.StepActions {
		for _, act := range acts {
			markAssigned(act.Body)
		}
	}
	var walkE func(e Expr)
	var walkS func(st Stmt)
	walkE = func(e Expr) {
		switch e := e.(type) {
		case *IdentExpr:
			if e.Ref == RefField {
				fl := e.Sym.(*Field)
				if on := a.valueOwner[fl]; on != nil && !bound[fl] {
					a.errorf(e.Pos, "instruction '%s' uses operand value '%s' but has no '%s' operand binding",
						in.Name, fl.Name, on.Name)
					bound[fl] = true // report once per instruction
				}
			}
		case *UnaryExpr:
			walkE(e.X)
		case *BinaryExpr:
			walkE(e.L)
			walkE(e.R)
		case *CondExpr:
			walkE(e.C)
			walkE(e.A)
			walkE(e.B)
		case *CallExpr:
			for _, arg := range e.Args {
				walkE(arg)
			}
		}
	}
	walkS = func(st Stmt) {
		switch st := st.(type) {
		case *Block:
			for _, s2 := range st.Stmts {
				walkS(s2)
			}
		case *AssignStmt:
			if st.Ref == RefField {
				if fl := st.Sym.(*Field); fl.Name == FieldNextPC {
					in.CTI = true
				}
			}
			walkE(st.RHS)
		case *LetStmt:
			walkE(st.RHS)
		case *IfStmt:
			walkE(st.Cond)
			walkS(st.Then)
			if st.Else != nil {
				walkS(st.Else)
			}
		case *CallStmt:
			for _, arg := range st.Args {
				walkE(arg)
			}
			if st.Builtin != nil && st.Builtin.Kind == BuiltinEffect {
				in.Barrier = true
			}
		}
	}
	for step, acts := range in.StepActions {
		// The exception step is reached only on faults, which already end
		// translated blocks; it does not make an instruction a CTI/barrier.
		if step == a.spec.ExcStep {
			continue
		}
		for _, act := range acts {
			walkS(act.Body)
		}
	}
}

// resolveBody resolves identifiers and builtins in an action body. It
// returns the encoding-field references found (resolved per-instruction by
// the caller). forbidEnc bans encoding references (ALL actions).
func (a *analyzer) resolveBody(b *Block, forbidEnc bool) []*IdentExpr {
	r := &resolver{a: a, forbidEnc: forbidEnc, scopes: []map[string]*Local{{}}}
	r.block(b)
	return r.encRefs
}

type resolver struct {
	a         *analyzer
	forbidEnc bool
	scopes    []map[string]*Local
	encRefs   []*IdentExpr
}

func (r *resolver) lookupLocal(name string) *Local {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if l := r.scopes[i][name]; l != nil {
			return l
		}
	}
	return nil
}

func (r *resolver) block(b *Block) {
	r.scopes = append(r.scopes, map[string]*Local{})
	for _, st := range b.Stmts {
		r.stmt(st)
	}
	r.scopes = r.scopes[:len(r.scopes)-1]
}

func (r *resolver) stmt(st Stmt) {
	a := r.a
	switch st := st.(type) {
	case *Block:
		r.block(st)
	case *LetStmt:
		r.expr(st.RHS)
		if a.spec.fieldByName[st.Name] != nil || a.consts[st.Name] != nil {
			a.errorf(st.Pos, "local '%s' shadows a field or const", st.Name)
			return
		}
		if r.lookupLocal(st.Name) != nil {
			a.errorf(st.Pos, "local '%s' redeclared", st.Name)
			return
		}
		st.Local = &Local{Name: st.Name, Slot: -1}
		r.scopes[len(r.scopes)-1][st.Name] = st.Local
	case *AssignStmt:
		r.expr(st.RHS)
		if l := r.lookupLocal(st.Name); l != nil {
			st.Ref, st.Sym = RefLocal, l
			return
		}
		if fl := a.spec.fieldByName[st.Name]; fl != nil {
			if readOnlyBuiltins[fl.Name] || fl.Auto {
				a.errorf(st.Pos, "field '%s' is read-only (set by the engine)", fl.Name)
			}
			st.Ref, st.Sym = RefField, fl
			return
		}
		a.errorf(st.Pos, "cannot assign to '%s': not a field or local", st.Name)
	case *IfStmt:
		r.expr(st.Cond)
		r.block(st.Then)
		if st.Else != nil {
			r.stmt(st.Else)
		}
	case *CallStmt:
		for _, arg := range st.Args {
			r.expr(arg)
		}
		b := Builtins[st.Name]
		if b == nil {
			a.errorf(st.Pos, "unknown builtin '%s'", st.Name)
			return
		}
		if b.Kind != BuiltinStore && b.Kind != BuiltinEffect {
			a.errorf(st.Pos, "builtin '%s' has a result; it cannot be used as a statement", st.Name)
			return
		}
		if len(st.Args) != b.Arity {
			a.errorf(st.Pos, "builtin '%s' takes %d arguments, got %d", st.Name, b.Arity, len(st.Args))
			return
		}
		st.Builtin = b
	}
}

func (r *resolver) expr(e Expr) {
	a := r.a
	switch e := e.(type) {
	case *NumExpr:
	case *IdentExpr:
		if l := r.lookupLocal(e.Name); l != nil {
			e.Ref, e.Sym = RefLocal, l
			return
		}
		if fl := a.spec.fieldByName[e.Name]; fl != nil {
			e.Ref, e.Sym = RefField, fl
			return
		}
		if c := a.consts[e.Name]; c != nil {
			e.Ref, e.Sym = RefConst, c
			return
		}
		// Otherwise assume an encoding-field reference; the caller
		// validates it against each applicable instruction's format.
		if r.forbidEnc {
			a.errorf(e.Pos, "unknown identifier '%s' (ALL actions may not reference encoding fields)", e.Name)
			return
		}
		e.Ref = RefEncoding
		r.encRefs = append(r.encRefs, e)
	case *UnaryExpr:
		r.expr(e.X)
	case *BinaryExpr:
		r.expr(e.L)
		r.expr(e.R)
	case *CondExpr:
		r.expr(e.C)
		r.expr(e.A)
		r.expr(e.B)
	case *CallExpr:
		for _, arg := range e.Args {
			r.expr(arg)
		}
		b := Builtins[e.Name]
		if b == nil {
			a.errorf(e.Pos, "unknown builtin '%s'", e.Name)
			return
		}
		if b.Kind == BuiltinStore || b.Kind == BuiltinEffect {
			a.errorf(e.Pos, "builtin '%s' is a statement, not an expression", e.Name)
			return
		}
		if len(e.Args) != b.Arity {
			a.errorf(e.Pos, "builtin '%s' takes %d arguments, got %d", e.Name, b.Arity, len(e.Args))
			return
		}
		e.Builtin = b
	}
}

func (a *analyzer) buildset(rb *rawBuildset) {
	s := a.spec
	if s.bsByName[rb.name] != nil {
		a.errorf(rb.pos, "duplicate buildset '%s'", rb.name)
		return
	}
	bs := &Buildset{
		Pos: rb.pos, Name: rb.name, Mode: rb.mode, Spec: rb.spec,
		Unchecked: rb.unchecked, VisBase: VisAll, SrcLines: rb.srcLines,
	}
	if rb.visSet {
		bs.VisBase = rb.visBase
	}
	minSet := make(map[string]bool, len(MinFields))
	for _, m := range MinFields {
		minSet[m] = true
	}
	for _, ri := range rb.show {
		fl := s.fieldByName[ri.name]
		if fl == nil {
			a.errorf(ri.pos, "buildset '%s': unknown field '%s' in show list", rb.name, ri.name)
			continue
		}
		bs.Show = append(bs.Show, fl)
	}
	for _, ri := range rb.hide {
		fl := s.fieldByName[ri.name]
		if fl == nil {
			a.errorf(ri.pos, "buildset '%s': unknown field '%s' in hide list", rb.name, ri.name)
			continue
		}
		if minSet[fl.Name] {
			a.errorf(ri.pos, "buildset '%s': minimal field '%s' cannot be hidden", rb.name, ri.name)
			continue
		}
		bs.Hide = append(bs.Hide, fl)
	}

	used := make([]bool, len(s.Steps))
	last := -1
	epNames := make(map[string]bool)
	for _, re := range rb.entries {
		if epNames[re.name] {
			a.errorf(re.pos, "buildset '%s': duplicate entrypoint '%s'", rb.name, re.name)
			continue
		}
		epNames[re.name] = true
		ep := &Entrypoint{Pos: re.pos, Name: re.name}
		for _, st := range re.steps {
			idx, ok := s.stepIndex[st.name]
			if !ok {
				a.errorf(st.pos, "buildset '%s': unknown step '%s'", rb.name, st.name)
				continue
			}
			if used[idx] {
				a.errorf(st.pos, "buildset '%s': step '%s' appears more than once", rb.name, st.name)
				continue
			}
			if idx <= last && !rb.unchecked {
				a.errorf(st.pos, "buildset '%s': step '%s' out of order (steps must follow the declared step order)",
					rb.name, st.name)
				continue
			}
			used[idx] = true
			last = idx
			ep.Steps = append(ep.Steps, idx)
		}
		if len(ep.Steps) == 0 {
			a.errorf(re.pos, "buildset '%s': entrypoint '%s' has no steps", rb.name, re.name)
			continue
		}
		bs.Entrypoints = append(bs.Entrypoints, ep)
	}
	if len(bs.Entrypoints) == 0 {
		a.errorf(rb.pos, "buildset '%s' has no entrypoints", rb.name)
		return
	}
	if !rb.unchecked {
		for i, u := range used {
			if !u {
				a.errorf(rb.pos, "buildset '%s': step '%s' is not covered by any entrypoint (declare 'unchecked;' to allow)",
					rb.name, s.Steps[i])
			}
		}
	}
	if bs.Mode == ModeBlock && len(bs.Entrypoints) != 1 {
		a.errorf(rb.pos, "buildset '%s': block mode requires exactly one entrypoint", rb.name)
	}
	s.Buildsets = append(s.Buildsets, bs)
	s.bsByName[rb.name] = bs
}

// evalConst evaluates a constant expression at analysis time.
func (a *analyzer) evalConst(e Expr) (uint64, bool) {
	switch e := e.(type) {
	case *NumExpr:
		return e.Val, true
	case *IdentExpr:
		if c := a.consts[e.Name]; c != nil {
			return c.Val, true
		}
		a.errorf(e.Pos, "const expression references non-const '%s'", e.Name)
		return 0, false
	case *UnaryExpr:
		x, ok := a.evalConst(e.X)
		if !ok {
			return 0, false
		}
		return EvalUnaryOp(e.Op, x), true
	case *BinaryExpr:
		l, ok1 := a.evalConst(e.L)
		r2, ok2 := a.evalConst(e.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		return EvalBinaryOp(e.Op, l, r2), true
	case *CondExpr:
		c, ok := a.evalConst(e.C)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return a.evalConst(e.A)
		}
		return a.evalConst(e.B)
	case *CallExpr:
		b := Builtins[e.Name]
		if b == nil || b.Kind != BuiltinPure {
			a.errorf(e.Position(), "const expression may only call pure builtins")
			return 0, false
		}
		args := make([]uint64, len(e.Args))
		for i, arg := range e.Args {
			v, ok := a.evalConst(arg)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		if len(args) != b.Arity {
			a.errorf(e.Position(), "builtin '%s' takes %d arguments, got %d", e.Name, b.Arity, len(args))
			return 0, false
		}
		return EvalPureBuiltin(b, args), true
	}
	a.errorf(e.Position(), "unsupported const expression")
	return 0, false
}
