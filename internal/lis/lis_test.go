package lis

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"singlespec/internal/mach"
)

// toySrc is a small but complete ISA description used across the frontend
// tests.
const toySrc = `
isa "toy";
word 64;
endian little;
instrsize 4;

space r count 16 width 64 zero 15;

step translate_pc, fetch, decode, opread, execute, memory, writeback, exception;
decodestep decode;

const HALT_BASE = 128;

field src_a 64;
field src_b 64;
field dest_v 64;
field effective_addr 64;

accessor R space r;

operandname src1 read(opread) = src_a;
operandname src2 read(opread) = src_b;
operandname dest1 write(writeback) = dest_v;

format ALUF { op[31:26]; ra[25:21]; rb[20:16]; rc[15:11]; }
format MEMF { op[31:26]; ra[25:21]; rb[20:16]; disp[15:0] signed; }
format BRF  { op[31:26]; ra[25:21]; disp[20:0] signed; }

class memclass;

instr ADD format ALUF match op == 1 asm "add r%ra, r%rb, r%rc";
instr LDW format MEMF class memclass match op == 2 asm "ldw r%ra, %disp(r%rb)";
instr STW format MEMF class memclass match op == 3 asm "stw r%ra, %disp(r%rb)";
instr BEQ format BRF match op == 4 asm "beq r%ra, %disp:pcrel(2,4)";
instr SYS format ALUF match op == 62 asm "sys";
instr HLT format ALUF match op == 63 asm "hlt";

operand ADD src1 R(ra);
operand ADD src2 R(rb);
operand ADD dest1 R(rc);
operand memclass src2 R(rb);
operand LDW dest1 R(ra);
operand STW src1 R(ra);
operand BEQ src1 R(ra);

action ADD@execute = { dest_v = src_a + src_b; }
action memclass@execute = { effective_addr = src_b + sext16(disp); }
action LDW@memory = { dest_v = load64(effective_addr); }
action STW@memory = { store64(effective_addr, src_a); }
action BEQ@execute = {
  if src_a == 0 {
    next_pc = pc + 4 + (sext(disp, 21) << 2);
  }
}
action SYS@execute = { syscall(); }
action HLT@execute = { halt(0); }
action ALL@exception = { if fault != 0 { halt(HALT_BASE + fault); } }

buildset one_all {
  visibility all;
  entrypoint do_in_one = translate_pc, fetch, decode, opread, execute, memory, writeback, exception;
}

buildset step_all {
  visibility all;
  entrypoint ep_fetch = translate_pc, fetch;
  entrypoint ep_decode = decode;
  entrypoint ep_opread = opread;
  entrypoint ep_execute = execute;
  entrypoint ep_memory = memory;
  entrypoint ep_writeback = writeback;
  entrypoint ep_exception = exception;
}

buildset block_min {
  visibility min;
  mode block;
  entrypoint run = translate_pc, fetch, decode, opread, execute, memory, writeback, exception;
}
`

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := Parse("toy.lis", src)
	if err != nil {
		t.Fatalf("parse failed:\n%v", err)
	}
	return spec
}

func TestParseToySpec(t *testing.T) {
	spec := mustParse(t, toySrc)
	if spec.Name != "toy" || spec.Word != 64 || spec.Endian != mach.LittleEndian {
		t.Errorf("header: %q %d %v", spec.Name, spec.Word, spec.Endian)
	}
	if len(spec.Instrs) != 6 {
		t.Errorf("instrs = %d", len(spec.Instrs))
	}
	if spec.DecodeStep != 2 {
		t.Errorf("decode step = %d", spec.DecodeStep)
	}
	add := spec.Instr("ADD")
	if add == nil || len(add.Operands) != 3 {
		t.Fatalf("ADD operands: %+v", add)
	}
	if add.Mask != uint64(0x3f)<<26 || add.Value != uint64(1)<<26 {
		t.Errorf("ADD mask/value = %#x/%#x", add.Mask, add.Value)
	}
	if add.CTI {
		t.Error("ADD should not be a CTI")
	}
	beq := spec.Instr("BEQ")
	if !beq.CTI {
		t.Error("BEQ should be a CTI")
	}
	if !spec.Instr("SYS").Barrier || !spec.Instr("HLT").Barrier {
		t.Error("SYS/HLT should be barriers")
	}
	ldw := spec.Instr("LDW")
	// memclass execute action + nothing else at execute.
	if n := len(ldw.StepActions[spec.StepIndex("execute")]); n != 1 {
		t.Errorf("LDW execute actions = %d", n)
	}
	if n := len(ldw.StepActions[spec.StepIndex("exception")]); n != 1 {
		t.Errorf("LDW exception actions = %d", n)
	}
}

func TestAutoIndexFields(t *testing.T) {
	spec := mustParse(t, toySrc)
	for _, name := range []string{"src1_idx", "src2_idx", "dest1_idx"} {
		f := spec.Field(name)
		if f == nil || !f.Auto {
			t.Errorf("auto field %s missing or not auto", name)
		}
	}
}

func TestVisibility(t *testing.T) {
	spec := mustParse(t, toySrc)
	oneAll := spec.Buildset("one_all")
	blockMin := spec.Buildset("block_min")
	ea := spec.Field("effective_addr")
	pc := spec.Field(FieldPC)
	if !oneAll.Visible(ea) {
		t.Error("one_all should show effective_addr")
	}
	if blockMin.Visible(ea) {
		t.Error("block_min should hide effective_addr")
	}
	if !blockMin.Visible(pc) {
		t.Error("pc is always visible")
	}
}

func TestVisibilityShowHide(t *testing.T) {
	src := strings.Replace(toySrc, "visibility min;",
		"visibility min show effective_addr, opcode;", 1)
	spec := mustParse(t, src)
	bs := spec.Buildset("block_min")
	if !bs.Visible(spec.Field("effective_addr")) || !bs.Visible(spec.Field(FieldOpcode)) {
		t.Error("shown fields should be visible")
	}
	if bs.Visible(spec.Field("src_a")) {
		t.Error("unshown field visible in min buildset")
	}

	src2 := strings.Replace(toySrc, "visibility all;\n  entrypoint do_in_one",
		"visibility all hide effective_addr;\n  entrypoint do_in_one", 1)
	spec2 := mustParse(t, src2)
	bs2 := spec2.Buildset("one_all")
	if bs2.Visible(spec2.Field("effective_addr")) {
		t.Error("hidden field visible in all buildset")
	}
}

func TestBuildsetLinesMetric(t *testing.T) {
	spec := mustParse(t, toySrc)
	bs := spec.Buildset("one_all")
	// "buildset one_all {", "visibility", "entrypoint", "}" = 4 non-blank lines.
	if bs.SrcLines != 4 {
		t.Errorf("one_all SrcLines = %d, want 4", bs.SrcLines)
	}
	if got := spec.Buildset("step_all").SrcLines; got != 10 {
		t.Errorf("step_all SrcLines = %d, want 10", got)
	}
}

// expectErr asserts that parsing src fails with a message containing want.
func expectErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Parse("err.lis", src)
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("expected error containing %q, got:\n%v", want, err)
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(string) string
		want string
	}{
		{"dup instr", func(s string) string {
			return s + "\ninstr ADD format ALUF match op == 9;"
		}, "duplicate instruction"},
		{"overlap", func(s string) string {
			return s + "\ninstr ADD2 format ALUF match op == 1;"
		}, "overlapping encodings"},
		{"unknown field in action", func(s string) string {
			return s + "\naction ADD@memory = { nosuch_target = 1; }"
		}, "cannot assign"},
		{"readonly field", func(s string) string {
			return s + "\naction HLT@memory = { pc = 0; }"
		}, "read-only"},
		{"unknown step", func(s string) string {
			return s + "\naction ADD@frobnicate = { dest_v = 1; }"
		}, "unknown step"},
		{"dup action", func(s string) string {
			return s + "\naction ADD@execute = { dest_v = 1; }"
		}, "already has an action"},
		{"missing operand binding", func(s string) string {
			return s + "\naction HLT@execute = { dest_v = src_a; }"
		}, "already has an action"}, // HLT has execute; use a fresh step below
		{"operand value without binding", func(s string) string {
			return s + "\naction HLT@writeback = { dest_v = src_a; }"
		}, "no 'src1' operand binding"},
		{"ALL with encoding ref", func(s string) string {
			return s + "\naction ALL@writeback = { next_pc = disp; }"
		}, "ALL actions may not reference"},
		{"unknown builtin", func(s string) string {
			return s + "\naction HLT@memory = { effective_addr = frob(1); }"
		}, "unknown builtin"},
		{"builtin arity", func(s string) string {
			return s + "\naction HLT@memory = { effective_addr = sext16(1, 2); }"
		}, "takes 1 arguments"},
		{"store in expression", func(s string) string {
			return s + "\naction HLT@memory = { effective_addr = store8(1, 2); }"
		}, "is a statement"},
		{"pure builtin as statement", func(s string) string {
			return s + "\naction HLT@memory = { sext16(3); }"
		}, "cannot be used as a statement"},
		{"buildset missing step", func(s string) string {
			return s + "\nbuildset broken { visibility min; entrypoint e = translate_pc, fetch, decode; }"
		}, "not covered by any entrypoint"},
		{"buildset dup step", func(s string) string {
			return s + "\nbuildset broken { visibility min; entrypoint a = translate_pc, fetch, decode, opread, execute, memory, writeback, exception; entrypoint b = execute; }"
		}, "appears more than once"},
		{"buildset hide min field", func(s string) string {
			return s + "\nbuildset broken { visibility all hide pc; entrypoint e = translate_pc, fetch, decode, opread, execute, memory, writeback, exception; }"
		}, "cannot be hidden"},
		{"block multi entrypoint", func(s string) string {
			return s + "\nbuildset broken { mode block; visibility min; entrypoint a = translate_pc, fetch, decode, opread, execute, memory; entrypoint b = writeback, exception; }"
		}, "block mode requires exactly one entrypoint"},
		{"instr action before decode", func(s string) string {
			return s + "\naction ADD@fetch = { effective_addr = 1; }"
		}, "only ALL actions may run before the decode step"},
		{"match value too wide", func(s string) string {
			return s + "\ninstr BAD format ALUF match op == 64;"
		}, "does not fit"},
		{"unknown accessor space", func(s string) string {
			return s + "\naccessor Q space nosuchspace;"
		}, "unknown space"},
		{"operand bound twice", func(s string) string {
			return s + "\noperand ADD src1 R(rb);"
		}, "bound twice"},
		{"const register index range", func(s string) string {
			return s + "\noperand HLT src1 R(99);"
		}, "out of range"},
		{"local shadows field", func(s string) string {
			return s + "\naction HLT@memory = { let src_a = 1; }"
		}, "shadows a field"},
		{"local redeclared", func(s string) string {
			return s + "\naction HLT@memory = { let t = 1; let t = 2; }"
		}, "redeclared"},
		{"dedicated value field", func(s string) string {
			return s + "\noperandname src9 read(opread) = src_a;"
		}, "value fields are dedicated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectErr(t, tc.edit(toySrc), tc.want)
		})
	}
}

func TestOverrideAction(t *testing.T) {
	src := toySrc + "\noverride action SYS@execute = { halt(42); }"
	spec := mustParse(t, src)
	acts := spec.Instr("SYS").StepActions[spec.StepIndex("execute")]
	if len(acts) != 1 || !acts[0].Override {
		t.Fatalf("override did not replace: %d actions", len(acts))
	}
}

func TestUncheckedBuildsetAllowsPartialCoverage(t *testing.T) {
	src := toySrc + "\nbuildset partial { unchecked; visibility min; entrypoint e = translate_pc, fetch, decode, execute; }"
	spec := mustParse(t, src)
	if spec.Buildset("partial") == nil {
		t.Fatal("partial buildset missing")
	}
}

func TestParserErrorRecovery(t *testing.T) {
	// Two distinct syntax errors should both be reported.
	src := "isa \"x\"\nword 64;\nbogus decl;\nfield f 64;"
	_, err := Parse("r.lis", src)
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "expected ';'") || !strings.Contains(msg, "unknown declaration") {
		t.Errorf("missing expected diagnostics:\n%s", msg)
	}
}

func TestConstFolding(t *testing.T) {
	src := strings.Replace(toySrc, `const HALT_BASE = 128;`,
		`const HALT_BASE = 128;
const A = 3 + 4 * 2;
const B = A << 2;
const C = B > 40 ? 1 : 2;
const D = sext16(0xffff);
const E = popcnt(0xf0f0);`, 1)
	spec := mustParse(t, src)
	want := map[string]uint64{"A": 11, "B": 44, "C": 1, "D": ^uint64(0), "E": 8}
	got := map[string]uint64{}
	for _, c := range spec.Consts {
		got[c.Name] = c.Val
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("const %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestConstErrors(t *testing.T) {
	expectErr(t, toySrc+"\nconst X = src_a + 1;", "non-const")
	expectErr(t, toySrc+"\nconst X = load64(8);", "pure builtins")
}

func TestLexerLiterals(t *testing.T) {
	var errs ErrorList
	lx := newLexer("t", "0x10 0b101 42 1_000 \"hi\\n\" foo", &errs)
	wantNums := []uint64{16, 5, 42, 1000}
	for i, w := range wantNums {
		tok := lx.next()
		if tok.kind != tokNumber || tok.num != w {
			t.Errorf("tok %d = %v %d, want number %d", i, tok.kind, tok.num, w)
		}
	}
	if tok := lx.next(); tok.kind != tokString || tok.text != "hi\n" {
		t.Errorf("string tok = %q", tok.text)
	}
	if tok := lx.next(); tok.kind != tokIdent || tok.text != "foo" {
		t.Errorf("ident tok = %q", tok.text)
	}
	if err := errs.Err(); err != nil {
		t.Errorf("lexer errors: %v", err)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"\"unterminated", "/* unterminated", "$"} {
		var errs ErrorList
		lx := newLexer("t", src, &errs)
		for tok := lx.next(); tok.kind != tokEOF; tok = lx.next() {
		}
		if len(errs) == 0 {
			t.Errorf("source %q: expected lexer error", src)
		}
	}
}

func TestEvalPureBuiltinSemantics(t *testing.T) {
	b := func(name string) *Builtin { return Builtins[name] }
	cases := []struct {
		name string
		args []uint64
		want uint64
	}{
		{"sext8", []uint64{0x80}, 0xffffffffffffff80},
		{"sext16", []uint64{0x7fff}, 0x7fff},
		{"sext32", []uint64{0x80000000}, 0xffffffff80000000},
		{"sext", []uint64{0x10, 5}, 0xfffffffffffffff0},
		{"trunc", []uint64{0x1ff, 8}, 0xff},
		{"bits", []uint64{0xabcd, 15, 8}, 0xab},
		{"asr", []uint64{0x8000000000000000, 63}, ^uint64(0)},
		{"lts", []uint64{^uint64(0), 0}, 1},
		{"gts", []uint64{^uint64(0), 0}, 0},
		{"sdiv", []uint64{uint64(^uint64(0) - 6), 2}, ^uint64(2)}, // -7/2 = -3
		{"srem", []uint64{uint64(^uint64(0) - 6), 2}, ^uint64(0)}, // -7%2 = -1
		{"sdiv", []uint64{5, 0}, 0},
		{"mulhu", []uint64{1 << 63, 4}, 2},
		{"rotl32", []uint64{0x80000001, 1}, 0x00000003},
		{"rotr64", []uint64{1, 1}, 1 << 63},
		{"clz32", []uint64{1}, 31},
		{"ctz64", []uint64{8}, 3},
		{"popcnt", []uint64{0xff}, 8},
	}
	for _, tc := range cases {
		if got := EvalPureBuiltin(b(tc.name), tc.args); got != tc.want {
			t.Errorf("%s%v = %#x, want %#x", tc.name, tc.args, got, tc.want)
		}
	}
}

// TestPureBuiltinFuncNames pins the names the Go emitter writes: every pure
// builtin has an exported function named FuncName, taking one argument per
// builtin operand.
func TestPureBuiltinFuncNames(t *testing.T) {
	funcs := []any{Sext8, Sext16, Sext32, Sext, Trunc, Bits, Asr, Lts, Les, Gts, Ges,
		Sdiv, Srem, Mulhu, Mulhs, Rotl32, Rotr32, Rotl64, Rotr64,
		Clz32, Clz64, Ctz32, Ctz64, Popcnt}
	byName := map[string]reflect.Value{}
	for _, f := range funcs {
		v := reflect.ValueOf(f)
		full := runtime.FuncForPC(v.Pointer()).Name()
		byName[full[strings.LastIndex(full, ".")+1:]] = v
	}
	pure := 0
	for _, b := range Builtins {
		if b.Kind != BuiltinPure {
			continue
		}
		pure++
		v, ok := byName[b.FuncName()]
		if !ok {
			t.Errorf("builtin %s: no function %s", b.Name, b.FuncName())
			continue
		}
		if n := v.Type().NumIn(); n != b.Arity {
			t.Errorf("%s takes %d arguments, builtin %s has arity %d", b.FuncName(), n, b.Name, b.Arity)
		}
	}
	if pure != len(funcs) {
		t.Errorf("%d pure builtins, %d functions", pure, len(funcs))
	}
}

func TestMulhsMatchesWideMultiply(t *testing.T) {
	f := func(x, y int64) bool {
		got := EvalPureBuiltin(Builtins["mulhs"], []uint64{uint64(x), uint64(y)})
		// Reference via 128-bit decomposition through mulhu identity.
		hi := EvalPureBuiltin(Builtins["mulhu"], []uint64{uint64(x), uint64(y)})
		if x < 0 {
			hi -= uint64(y)
		}
		if y < 0 {
			hi -= uint64(x)
		}
		return got == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSextTruncInverse(t *testing.T) {
	f := func(x uint64, w8 uint8) bool {
		w := uint64(w8%63) + 1
		tr := EvalPureBuiltin(Builtins["trunc"], []uint64{x, w})
		se := EvalPureBuiltin(Builtins["sext"], []uint64{x, w})
		// trunc(sext(x,w), w) == trunc(x, w)
		return EvalPureBuiltin(Builtins["trunc"], []uint64{se, w}) == tr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalBinOpProperties(t *testing.T) {
	f := func(x, y uint64) bool {
		if EvalBinaryOp(OpAdd, x, y) != x+y {
			return false
		}
		if EvalBinaryOp(OpDiv, x, 0) != 0 || EvalBinaryOp(OpRem, x, 0) != 0 {
			return false
		}
		if EvalBinaryOp(OpShl, x, 64) != 0 || EvalBinaryOp(OpShr, x, 70) != 0 {
			return false
		}
		lt := EvalBinaryOp(OpLt, x, y)
		ge := EvalBinaryOp(OpGe, x, y)
		return lt+ge == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The parser must never panic, no matter how the input is mangled
// (truncations and character substitutions over the toy source).
func TestParserRobustnessNoPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	// Truncations.
	for cut := 0; cut < len(toySrc); cut += 97 {
		Parse("trunc.lis", toySrc[:cut])
	}
	// Deterministic character corruption.
	junk := []byte{'{', '}', ';', '%', '"', 0, '\\'}
	x := uint32(12345)
	for k := 0; k < 300; k++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		pos := int(x) % len(toySrc)
		if pos < 0 {
			pos = -pos
		}
		mutated := []byte(toySrc)
		mutated[pos] = junk[int(x>>8)%len(junk)]
		Parse("mut.lis", string(mutated))
	}
}

func TestDeeplyNestedExpressionsParse(t *testing.T) {
	expr := "1"
	for i := 0; i < 200; i++ {
		expr = "(" + expr + " + 1)"
	}
	src := toySrc + "\nconst DEEP = " + expr + ";"
	spec, err := Parse("deep.lis", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec.Consts {
		if c.Name == "DEEP" && c.Val != 201 {
			t.Errorf("DEEP = %d", c.Val)
		}
	}
}

func TestAsmSuffixDeclaration(t *testing.T) {
	src := toySrc + `
asmsuffix op { q = 1; w = 2; }
`
	spec := mustParse(t, src)
	if spec.AsmSuffix == nil || spec.AsmSuffix.Field != "op" || len(spec.AsmSuffix.Defs) != 2 {
		t.Fatalf("asmsuffix = %+v", spec.AsmSuffix)
	}
	expectErr(t, src+"\nasmsuffix op { z = 3; }", "at most one asmsuffix")
	expectErr(t, toySrc+"\nasmsuffix op { q = 1; q = 2; }", "duplicate asm suffix")
}

func TestFormatFieldDefaults(t *testing.T) {
	src := strings.Replace(toySrc,
		"format ALUF { op[31:26]; ra[25:21]; rb[20:16]; rc[15:11]; }",
		"format ALUF { op[31:26]; ra[25:21] default 7; rb[20:16]; rc[15:11]; }", 1)
	spec := mustParse(t, src)
	ff := spec.Instr("ADD").Format.Field("ra")
	if ff.Default != 7 {
		t.Errorf("default = %d", ff.Default)
	}
}

func TestFetchAndExcStepDeclarations(t *testing.T) {
	spec := mustParse(t, toySrc)
	// toySrc declares neither; defaults apply.
	if spec.FetchStep != spec.DecodeStep {
		t.Errorf("default fetch step = %d", spec.FetchStep)
	}
	if spec.ExcStep != len(spec.Steps)-1 {
		t.Errorf("default exception step = %d", spec.ExcStep)
	}
	src := strings.Replace(toySrc, "decodestep decode;",
		"decodestep decode;\nfetchstep fetch;\nexcstep exception;", 1)
	spec2 := mustParse(t, src)
	if spec2.FetchStep != spec2.StepIndex("fetch") || spec2.ExcStep != spec2.StepIndex("exception") {
		t.Errorf("explicit steps: fetch=%d exc=%d", spec2.FetchStep, spec2.ExcStep)
	}
	expectErr(t, strings.Replace(toySrc, "decodestep decode;",
		"decodestep decode;\nfetchstep execute;", 1), "must not come after the decode step")
	expectErr(t, toySrc+"\nfetchstep nosuch;", "not a declared step")
}
