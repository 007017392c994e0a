package aot

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// Tests of the runner's machine substrate: code stores seen through
// mach.Memory's code-store epoch, stdin handed to sysemu through the init
// frame, and the module source the runner builds against.

// smcPrograms call target twice, so its block is built and chained, then
// overwrite target's first instruction with the word at repl and call it a
// third time. The program exits with the counter target bumps: 102 when
// the rewritten instruction runs, 3 when a stale copy does.
var smcPrograms = map[string]string{
	"alpha64": `
.text
_start:
    bis r31, r31, r1
    bsr r26, target
    bsr r26, target
    ldah r3, ha(repl)(r31)
    lda r3, lo(repl)(r3)
    ldl r4, 0(r3)
    ldah r5, ha(target)(r31)
    lda r5, lo(target)(r5)
    stl r4, 0(r5)
    bsr r26, target
    addq r31, 1, r0        // SysExit
    bis r1, r1, r16
    callsys
target:
    addq r1, 1, r1
    ret r31, (r26)
repl:
    addq r1, 100, r1
`,
	"arm32": `
.text
_start:
    mov r1, #0, 0
    bl target
    bl target
    mov r3, #byte2(repl), 8
    orr r3, r3, #byte1(repl), 12
    orr r3, r3, #byte0(repl), 0
    ldr r4, [r3, #0]
    mov r5, #byte2(target), 8
    orr r5, r5, #byte1(target), 12
    orr r5, r5, #byte0(target), 0
    str r4, [r5, #0]
    bl target
    mov r0, r1, 0, 0
    mov r7, #1, 0          // SysExit
    swi
target:
    add r1, r1, #1, 0
    bx r14
repl:
    add r1, r1, #100, 0
`,
	"ppc32": `
.text
_start:
    addi r10, r0, 0
    bl target
    bl target
    addis r9, r0, ha(repl)
    addi r9, r9, lo(repl)
    lwz r12, 0(r9)
    addis r8, r0, ha(target)
    addi r8, r8, lo(target)
    stw r12, 0(r8)
    bl target
    addi r0, r0, 1         // SysExit
    addi r3, r10, 0
    sc
target:
    addi r10, r10, 1
    blr
repl:
    addi r10, r10, 100
`,
}

// stdinPrograms echo stdin to stdout five bytes per read until a read
// returns 0, and exit with the number of bytes read.
var stdinPrograms = map[string]string{
	"alpha64": `
.text
_start:
    bis r31, r31, r9
loop:
    addq r31, 3, r0        // SysRead
    bis r31, r31, r16
    ldah r17, ha(buf)(r31)
    lda r17, lo(buf)(r17)
    addq r31, 5, r18
    callsys
    beq r0, done
    addq r9, r0, r9
    bis r0, r0, r18
    addq r31, 2, r0        // SysWrite
    addq r31, 1, r16
    callsys
    br r31, loop
done:
    addq r31, 1, r0        // SysExit
    bis r9, r9, r16
    callsys
.data
buf: .space 8
`,
	"arm32": `
.text
_start:
    mov r9, #0, 0
loop:
    mov r7, #3, 0          // SysRead
    mov r0, #0, 0
    mov r1, #byte2(buf), 8
    orr r1, r1, #byte1(buf), 12
    orr r1, r1, #byte0(buf), 0
    mov r2, #5, 0
    swi
    cmp r0, #0, 0
    beq done
    add r9, r9, r0, 0, 0
    mov r2, r0, 0, 0
    mov r7, #2, 0          // SysWrite
    mov r0, #1, 0
    swi
    b loop
done:
    mov r7, #1, 0          // SysExit
    mov r0, r9, 0, 0
    swi
.data
buf: .space 8
`,
	"ppc32": `
.text
_start:
    addi r10, r0, 0
loop:
    addi r0, r0, 3         // SysRead
    addi r3, r0, 0
    addis r4, r0, ha(buf)
    addi r4, r4, lo(buf)
    addi r5, r0, 5
    sc
    cmpwi 0, r3, 0
    bt 2, done
    add r10, r10, r3
    addi r5, r3, 0
    addi r0, r0, 2         // SysWrite
    addi r3, r0, 1
    sc
    b loop
done:
    addi r0, r0, 1         // SysExit
    addi r3, r10, 0
    sc
.data
buf: .space 8
`,
}

func assemble(t *testing.T, i *isa.ISA, src string) *asm.Program {
	t.Helper()
	a, err := asm.New(i)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble(i.Name+".s", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// interpRun runs prog to completion on the interpreter, with stdin.
func interpRun(t *testing.T, sim *core.Sim, i *isa.ISA, prog *asm.Program, stdin []byte) (*mach.Machine, *sysemu.Emulator) {
	t.Helper()
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Stdin = stdin
	emu.Install(m)
	prog.LoadInto(m)
	sim.NewExec(m).Run(1 << 20)
	if !m.Halted {
		t.Fatalf("interpreter did not halt (pc %#x)", m.PC)
	}
	return m, emu
}

// TestSelfModifyingCodeThroughRunner stores into another block mid-run and
// branches to it. The runner must drop its cached superblock and its chain
// link through the code-store epoch and run the new instruction, as the
// interpreter does: on block_min the final state shows it, on one_all every
// record too.
func TestSelfModifyingCodeThroughRunner(t *testing.T) {
	for _, isaName := range isa.Names() {
		for _, buildset := range []string{"block_min", "one_all"} {
			t.Run(isaName+"/"+buildset, func(t *testing.T) {
				i, sim := loadSim(t, isaName, buildset)
				prog := assemble(t, i, smcPrograms[isaName])
				if m, _ := interpRun(t, sim, i, prog, nil); m.ExitCode != 102 {
					t.Fatalf("interpreter exit code %d, want 102: the program does not run the rewritten instruction", m.ExitCode)
				}
				b := buildRunner(t, i, sim, nil)
				if d := diffFresh(t, sim, i, prog, b.BinPath, nil); d != nil {
					t.Fatalf("divergence: %v", d)
				}
			})
		}
	}
}

// TestRunnerStdin reads stdin over several calls, the last ones asking for
// more bytes than remain, on both backends: the runner gets stdin through
// the init frame, the interpreter through Emulator.Stdin.
func TestRunnerStdin(t *testing.T) {
	stdin := []byte("single spec\n!") // 13 bytes: reads of 5, 5, 3, 0
	for _, isaName := range isa.Names() {
		t.Run(isaName, func(t *testing.T) {
			i, sim := loadSim(t, isaName, "block_min")
			prog := assemble(t, i, stdinPrograms[isaName])
			m, emu := interpRun(t, sim, i, prog, stdin)
			if got := emu.Stdout.Bytes(); !bytes.Equal(got, stdin) || m.ExitCode != len(stdin) {
				t.Fatalf("interpreter echoed %q and exited %d, want %q and %d", got, m.ExitCode, stdin, len(stdin))
			}
			b := buildRunner(t, i, sim, nil)
			r, err := Spawn(b.BinPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if err := r.Init(prog, stdin); err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(1<<20, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Stdout, emu.Stdout.Bytes()) {
				t.Errorf("stdout: runner %q, interpreter %q", res.Stdout, emu.Stdout.Bytes())
			}
			if !res.Halted || res.ExitCode != int64(m.ExitCode) {
				t.Errorf("exit: runner halted=%v code=%d, interpreter code %d", res.Halted, res.ExitCode, m.ExitCode)
			}
			if res.Instret != m.Instret || res.PC != m.PC {
				t.Errorf("instret/pc: runner %d/%#x, interpreter %d/%#x", res.Instret, res.PC, m.Instret, m.PC)
			}
			for si, sp := range m.Spaces {
				if !slices.Equal(res.Spaces[si], sp.Vals) {
					t.Errorf("space %s: runner %#x, interpreter %#x", sp.Def.Name, res.Spaces[si], sp.Vals)
				}
			}
		})
	}
}

// requireModuleSource skips when this test binary records no module
// source, or no toolchain is on PATH to list it, as requireToolchain does
// without a toolchain.
func requireModuleSource(t *testing.T) (gobin string, mod moduleSrc) {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("skipping: go toolchain not available on PATH")
	}
	mod, err = moduleSource(gobin)
	if errors.Is(err, ErrNoSource) {
		t.Skipf("skipping: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	return gobin, mod
}

// TestRunnerImportsListed: the dependency digest starts from
// runnerImports, so they must name every module package the harness and
// the generated source import.
func TestRunnerImportsListed(t *testing.T) {
	i, sim := loadSim(t, "alpha64", "one_all")
	gen, err := sim.EmitRunner(RunnerConvFor(i.Conv))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"harness.go": runnerHarness, "gen.go": gen} {
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			if strings.HasPrefix(path, modulePath+"/") && !slices.Contains(runnerImports, path) {
				t.Errorf("%s imports %s, which runnerImports does not list", name, path)
			}
		}
	}
}

// TestRunnerDepsInKey: the cache key covers the source of every module
// package a runner links, embedded files included.
func TestRunnerDepsInKey(t *testing.T) {
	gobin, mod := requireModuleSource(t)
	for _, p := range []string{"mach", "sysemu", "isa", "lis"} {
		if !slices.Contains(mod.pkgs, "singlespec/internal/"+p) {
			t.Errorf("runner dependencies %v miss internal/%s", mod.pkgs, p)
		}
	}
	tc := toolchain{Version: "go test", OS: "linux", Arch: "amd64"}
	if cacheKey(tc, "deps-a", "src") == cacheKey(tc, "deps-b", "src") {
		t.Error("two dependency digests give one cache key")
	}

	// A copy of the packages runners link: editing an embedded .lis file
	// must change the digest.
	tmp := t.TempDir()
	files := []string{"go.mod"}
	for _, p := range mod.pkgs {
		rel, _ := filepath.Rel("singlespec", p)
		ents, err := os.ReadDir(filepath.Join(mod.root, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !e.IsDir() {
				files = append(files, filepath.Join(rel, e.Name()))
			}
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(mod.root, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(tmp, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, _, err := depsDigest(gobin, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if before != mod.deps {
		t.Fatal("a copy of the runner's packages digests differently from the original")
	}
	lisFile := filepath.Join(tmp, "internal", "isa", "alpha.lis")
	data, err := os.ReadFile(lisFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lisFile, append(data, "\n// edited\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	after, _, err := depsDigest(gobin, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("editing isa's embedded alpha.lis left the dependency digest unchanged")
	}
}
