package main

import (
	"fmt"
	"math/bits"
	"os"
	"time"

	"singlespec/internal/aot"
	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/lis"
	"singlespec/internal/mach"
	"singlespec/internal/orgs"
	"singlespec/internal/sysemu"
	"singlespec/internal/timing/bpred"
	"singlespec/internal/timing/cache"
	"singlespec/internal/timing/pipeline"
)

// backend names the execution engine a cell runs on.
type backend int

const (
	interp backend = iota
	// aotPipe is the generated runner over the subprocess pipe, the AOT
	// backend's default transport.
	aotPipe
	// aotPlugin is the same runner loaded in process; traced stream runs
	// only, as evidence on the plugin transport.
	aotPlugin
)

func (k backend) String() string {
	switch k {
	case aotPipe:
		return "aot"
	case aotPlugin:
		return "aot-plugin"
	}
	return "interp"
}

// cell is one (ISA, interface or organization, backend) triple over the
// workload's kernel mix. visit runs every kernel once; measured visits
// record samples, set-up visits only check and fix references.
type cell struct {
	name    string
	backend backend
	org     string // the organization, for orgs cells
	visit   func(measured bool)

	// runs holds the ns/instr of every measured run, by untraced (0) or
	// traced (1) round, then by kernel.
	runs         [2][][]float64
	work, instrs uint64 // traced interpreter runs: Exec.Work and instructions
}

// outcome is what one run produced.
type outcome struct {
	instrs uint64
	halted bool
	exit   int64
	result uint32 // the word at the kernel's result symbol
	ns     int64  // from the call that starts the run to the last record consumed

	hasRecs bool // records were delivered to a sink
	records uint64
	digest  uint64
	// fresh marks the first run of a fresh Exec or a freshly initialized
	// runner. Record fields an instruction does not write keep the previous
	// instruction's values, so a fresh run's first records differ from a
	// later run's, and the two are compared with different references.
	fresh bool

	hasCycles bool // a timing model consumed the run
	cycles    uint64

	// injected counts the faults a hook injected (timing-first register
	// corruptions, spec-FF rollback requests); recovered counts the
	// recoveries the organization reported.
	injected, recovered uint64
}

// refKey names the reference outcome a run is compared with.
type refKey struct {
	isa, name string
	kernel    int
}

// streamKey names a reference record stream: per key, one for fresh runs
// and one for runs that follow another run of the same program.
type streamKey struct {
	refKey
	fresh bool
}

// check returns why one run's outcome is wrong, or nil. want is the kernel's
// reference checksum; ref, when non-nil, is the reference outcome for the
// same (ISA, interface, kernel) — the interpreter's, for an AOT run.
func check(o outcome, want uint32, ref *outcome) error {
	switch {
	case !o.halted:
		return fmt.Errorf("did not halt within %d instructions", budget)
	case o.exit != 0:
		return fmt.Errorf("exit code %d", o.exit)
	case o.result != want:
		return fmt.Errorf("checksum %#x, want %#x", o.result, want)
	case o.injected != o.recovered:
		return fmt.Errorf("%d faults injected, %d recovered", o.injected, o.recovered)
	}
	if ref == nil {
		return nil
	}
	switch {
	case o.instrs != ref.instrs:
		return fmt.Errorf("instret %d, reference %d", o.instrs, ref.instrs)
	case o.hasRecs && ref.hasRecs && (o.records != ref.records || o.digest != ref.digest):
		return fmt.Errorf("record stream: %d records (digest %#x), reference %d (digest %#x)",
			o.records, o.digest, ref.records, ref.digest)
	case o.hasCycles && ref.hasCycles && o.cycles != ref.cycles:
		return fmt.Errorf("cycles %d, reference %d", o.cycles, ref.cycles)
	}
	return nil
}

// tally counts the runs attempted and the runs that failed.
type tally struct {
	attempted, failed int
}

// record counts one run; err is why it failed, or nil.
func (t *tally) record(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 20 {
		fmt.Fprintf(os.Stderr, "bench: FAIL %s: %v\n", what, err)
	}
}

// finish checks one run and counts it; a measured run that passes becomes a
// sample.
func (b *bench) finish(c *cell, key refKey, setsRef bool, o outcome, err error, measured bool) {
	if err == nil {
		err = b.verify(key, setsRef, o)
	}
	b.ops.record(c.name+"/"+b.sizes[key.kernel].name, err)
	if err == nil && measured {
		b.sample(c, key.kernel, o)
	}
}

// verify checks a run against its kernel's checksum and reference. On a
// reference-setting cell, the first run of each kernel fixes the reference
// instruction and cycle counts; the first run of each history class that
// delivers records fixes that class's reference stream.
func (b *bench) verify(key refKey, setsRef bool, o outcome) error {
	want := b.sizes[key.kernel].want
	ref, ok := b.refs[key]
	if !ok {
		if !setsRef {
			return fmt.Errorf("no reference outcome for %s/%s", key.isa, key.name)
		}
		if err := check(o, want, nil); err != nil {
			return err
		}
		ref = o
		ref.hasRecs = false
		b.refs[key] = ref
	}
	sk := streamKey{key, o.fresh}
	s, haveStream := b.streams[sk]
	if haveStream {
		ref.hasRecs, ref.records, ref.digest = true, s.records, s.digest
	}
	if err := check(o, want, &ref); err != nil {
		return err
	}
	if o.hasRecs && !haveStream {
		b.streams[sk] = o
	}
	return nil
}

// sink is the benchmark's consumer of one run's records.
type sink interface {
	take(rec *core.Record)
	fill(o *outcome)
}

// nullSink is the null consumer. It folds PC, NextPC and every visible
// field of each record into a rotate-XOR digest, which doubles as a
// comparison of two backends' record streams.
type nullSink struct{ n, digest uint64 }

func newNullSink() (sink, error) { return &nullSink{}, nil }

func (s *nullSink) take(rec *core.Record) {
	d := bits.RotateLeft64(s.digest, 1) ^ rec.PC ^ rec.NextPC
	for _, v := range rec.Vals {
		d ^= v
	}
	s.digest = d
	s.n++
}

func (s *nullSink) fill(o *outcome) {
	o.hasRecs, o.records, o.digest = true, s.n, s.digest
}

// timingSink feeds records to the in-order pipeline model, the consumer of
// the functional-first organization. Each run gets a fresh model with empty
// caches, as each orgs.RunFunctionalFirst call does, so the cycle counts
// are comparable.
type timingSink struct {
	model *pipeline.Model
	hier  *cache.Hierarchy
	n     uint64
}

func newTimingSink(layout *core.Layout) (*timingSink, error) {
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	return &timingSink{model: model, hier: hier}, nil
}

func (s *timingSink) take(rec *core.Record) {
	s.model.Consume(rec)
	s.n++
}

func (s *timingSink) fill(o *outcome) {
	o.hasRecs, o.records = true, s.n
	o.hasCycles, o.cycles = true, s.model.Stats.Cycles
}

// mode is how a buildset's interface is driven.
type mode int

const (
	modeOne mode = iota
	modeBlock
	modeStep
)

func modeOf(sim *core.Sim) mode {
	switch {
	case sim.BS.Mode == lis.ModeBlock:
		return modeBlock
	case len(sim.BS.Entrypoints) > 1:
		return modeStep
	}
	return modeOne
}

// interpKernel is one kernel loaded on its own machine behind one Exec. Both
// live for the whole run: a run resets architectural state and keeps the
// Exec's translation caches.
type interpKernel struct {
	prog   *asm.Program
	result uint64
	m      *mach.Machine
	emu    *sysemu.Emulator
	x      *core.Exec
	batch  core.Batch
	rec    core.Record
	runs   int
}

func newInterpKernel(i *isa.ISA, sim *core.Sim, prog *asm.Program) *interpKernel {
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	prog.LoadInto(m)
	return &interpKernel{prog: prog, result: prog.Symbols["result"], m: m, emu: emu, x: sim.NewExec(m)}
}

// reset restores the state a run starts from — the reset the experiment
// engine's Runner applies between runs: registers, halt state, counters,
// the speculation journal, emulated-OS output, the stack pointer and the
// data segments.
func (k *interpKernel) reset() {
	for _, sp := range k.m.Spaces {
		clear(sp.Vals)
	}
	k.m.Halted, k.m.ExitCode, k.m.Instret = false, 0, 0
	k.m.Journal.Reset()
	k.emu.Stdout.Reset()
	k.emu.Install(k.m)
	k.prog.ReloadData(k.m)
}

func (b *bench) synth(is *isaSet, iface string) (*core.Sim, error) {
	var sim *core.Sim
	err := b.step("core.synth", func() (err error) {
		sim, err = core.Synthesize(is.isa.Spec, iface, core.Options{})
		return err
	})
	return sim, err
}

// buildRunner builds sim's AOT runner into the set-up's fresh cache.
func (b *bench) buildRunner(is *isaSet, sim *core.Sim) (string, error) {
	conv := aot.RunnerConvFor(is.isa.Conv)
	if b.tr != nil {
		// Emission on its own; aot.Build emits again inside aot.build.
		err := b.step("aot.emit", func() error {
			_, err := sim.EmitRunner(conv)
			return err
		})
		if err != nil {
			return "", err
		}
	}
	var br *aot.BuildResult
	err := b.step("aot.build", func() (err error) {
		br, err = aot.Build(sim, conv, b.aotDir, nil)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("%s/%s: %w", is.isa.Name, sim.BS.Name, err)
	}
	return br.BinPath, nil
}

// interfaceCells builds the interface workloads' cells: every interface on
// every ISA on both backends. Interpreter cells come first, so the warm-up
// fixes their references before the AOT cells are compared with them.
func (b *bench) interfaceCells(sets []*isaSet) ([]*cell, error) {
	var interpCells, aotCells []*cell
	plugins := b.w.plugin && b.tracer != nil && !b.cfg.quick
	for _, is := range sets {
		for _, iface := range b.w.ifaces {
			sim, err := b.synth(is, iface)
			if err != nil {
				return nil, err
			}
			interpCells = append(interpCells, b.interpCell(is, iface, sim, newNullSink, "consume"))
			bin, err := b.buildRunner(is, sim)
			if err != nil {
				return nil, err
			}
			aotCells = append(aotCells, b.aotCell(is, iface, bin, nil, newNullSink, "consume"))
			if plugins {
				if c := b.pluginCell(is, iface, sim); c != nil {
					aotCells = append(aotCells, c)
				}
			}
		}
	}
	return append(interpCells, aotCells...), nil
}

// pluginCell builds the in-process plugin variant of an AOT cell, or
// returns nil when this host cannot load runner plugins.
func (b *bench) pluginCell(is *isaSet, iface string, sim *core.Sim) *cell {
	var h *aot.PluginHandle
	err := b.step("aot.plugin.build", func() error {
		br, err := aot.BuildPlugin(sim, aot.RunnerConvFor(is.isa.Conv), b.aotDir, nil)
		if err == nil {
			h, err = aot.LoadPlugin(br.BinPath)
		}
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: plugin transport unavailable for %s/%s: %v\n", is.isa.Name, iface, err)
		return nil
	}
	return b.aotCell(is, iface, "", h, newNullSink, "consume")
}

// interpCell drives sim's interface in process. newSink gives each run its
// consumer; consumeLayer names the consumer's layer in the trace.
func (b *bench) interpCell(is *isaSet, name string, sim *core.Sim, newSink func() (sink, error), consumeLayer string) *cell {
	c := &cell{name: is.isa.Name + "/" + name + "/interp", backend: interp}
	ks := make([]*interpKernel, len(is.progs))
	for k, prog := range is.progs {
		ks[k] = newInterpKernel(is.isa, sim, prog)
		b.execs = append(b.execs, ks[k].x)
	}
	md, neps := modeOf(sim), len(sim.BS.Entrypoints)
	c.visit = func(measured bool) {
		id := b.tr.begin(c.name)
		defer b.tr.end(id)
		for k, ik := range ks {
			snk, err := newSink()
			var o outcome
			if err == nil {
				o = b.runInterp(c, ik, md, neps, snk, consumeLayer)
			}
			b.finish(c, refKey{is.isa.Name, name, k}, true, o, err, measured)
		}
	}
	return c
}

// runInterp runs one kernel to completion through the interpreter. The
// clock runs from the first Exec call until the sink has taken the last
// record. Traced runs also time every Exec call and every consumer call,
// folded into one span per layer.
func (b *bench) runInterp(c *cell, ik *interpKernel, md mode, neps int, snk sink, consumeLayer string) outcome {
	ik.reset()
	fresh := ik.runs == 0
	ik.runs++
	m, x := ik.m, ik.x
	tr := b.tr
	var exec, cons fold
	var run int
	var w0 uint64
	var st0 core.ExecStats
	if tr != nil {
		run = tr.beginRun()
		w0, st0 = x.Work(), x.Stats()
	}
	var t int64
	start := time.Now()
	switch md {
	case modeBlock:
		batch := &ik.batch
		for !m.Halted && m.Instret < budget {
			if tr != nil {
				t = tr.now()
			}
			ok := x.ExecBlock(batch)
			if tr != nil {
				t = exec.add(t, tr.now(), 1)
			}
			for i := range batch.Recs {
				snk.take(&batch.Recs[i])
			}
			if tr != nil && len(batch.Recs) > 0 {
				cons.add(t, tr.now(), uint64(len(batch.Recs)))
			}
			if !ok {
				break
			}
		}
	case modeStep:
		rec := &ik.rec
		for !m.Halted && m.Instret < budget {
			rec.PC = m.PC
			for ep := 0; ep < neps; ep++ {
				if tr != nil {
					t = tr.now()
				}
				x.StepCall(ep, rec)
				if tr != nil {
					t = exec.add(t, tr.now(), 1)
				}
				snk.take(rec)
				if tr != nil {
					cons.add(t, tr.now(), 1)
				}
			}
			if rec.Fault != mach.FaultNone {
				break
			}
		}
	default:
		rec := &ik.rec
		for !m.Halted && m.Instret < budget {
			if tr != nil {
				t = tr.now()
			}
			ok := x.ExecOne(rec)
			if tr != nil {
				t = exec.add(t, tr.now(), 1)
			}
			snk.take(rec)
			if tr != nil {
				cons.add(t, tr.now(), 1)
			}
			if !ok {
				break
			}
		}
	}
	o := outcome{instrs: m.Instret, halted: m.Halted, exit: int64(m.ExitCode), ns: time.Since(start).Nanoseconds(), fresh: fresh}
	if v, f := m.Mem.Load(ik.result, 4); f == mach.FaultNone {
		o.result = uint32(v)
	}
	snk.fill(&o)
	if tr != nil {
		tr.fold(run, "core.exec", exec)
		tr.fold(run, consumeLayer, cons)
		tr.end(run)
		if b.layerOn {
			b.layers.addInterp(o, exec, cons, consumeLayer, x.Work()-w0, statsDelta(x.Stats(), st0))
			b.layers.addSink(snk)
			c.work += x.Work() - w0
			c.instrs += o.instrs
		}
	}
	return o
}

// aotCell drives a generated runner: over the pipe when plugin is nil, in
// process otherwise. At most one runner process is alive: a visit spawns
// one, keeps it across the mix's kernels and closes it. After each kernel's
// Init, a measured visit runs the program once without records, outside the
// clock, so the runner's superblock cache is warm like the interpreter's
// translation caches.
func (b *bench) aotCell(is *isaSet, name, bin string, plugin *aot.PluginHandle, newSink func() (sink, error), consumeLayer string) *cell {
	be := aotPipe
	if plugin != nil {
		be = aotPlugin
	}
	c := &cell{name: is.isa.Name + "/" + name + "/" + be.String(), backend: be}
	c.visit = func(measured bool) {
		id := b.tr.begin(c.name)
		defer b.tr.end(id)
		cl, err := b.open(bin, plugin)
		if err != nil {
			for k := range is.progs {
				b.finish(c, refKey{is.isa.Name, name, k}, false, outcome{}, err, measured)
			}
			return
		}
		defer b.closeClient(cl, plugin == nil)
		for k, prog := range is.progs {
			key := refKey{is.isa.Name, name, k}
			err := b.step("aot.init", func() error { return cl.Init(prog, nil) })
			fresh := true
			if err == nil && measured {
				var o outcome
				o, err = b.runAOT(cl, prog, nil, "", be)
				b.finish(c, key, false, o, err, false)
				fresh = false
			}
			var snk sink
			if err == nil {
				snk, err = newSink()
			}
			var o outcome
			if err == nil {
				o, err = b.runAOT(cl, prog, snk, consumeLayer, be)
				o.fresh = fresh
			}
			b.finish(c, key, false, o, err, measured)
		}
	}
	return c
}

func (b *bench) open(bin string, plugin *aot.PluginHandle) (aot.Client, error) {
	if plugin != nil {
		return plugin.Session(), nil
	}
	var r *aot.Runner
	err := b.step("aot.spawn", func() (err error) {
		r, err = aot.SpawnWithDeadline(bin, b.reg, runnerDeadline)
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// closeClient ends a runner session. A runner process's peak RSS is read
// just before it exits.
func (b *bench) closeClient(cl aot.Client, process bool) {
	if process {
		b.childPeakKB = max(b.childPeakKB, childPeakKB())
	}
	if err := cl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: closing runner: %v\n", err)
	}
}

// runAOT runs the loaded program once through a runner. With a sink, the
// runner streams records and the clock runs from the Run call until the
// sink has taken the last one. Without a sink the run is an untimed warm-up
// and asks for no records.
func (b *bench) runAOT(cl aot.Client, prog *asm.Program, snk sink, consumeLayer string, be backend) (outcome, error) {
	tr := b.tr
	if snk == nil {
		tr = nil
	}
	var run int
	var rx0 uint64
	if tr != nil {
		run = tr.beginRun()
		rx0 = b.reg.Counter("aot.proto.rx").Load()
	}
	t0 := time.Now()
	res, err := cl.Run(budget, snk != nil, prog.Symbols["result"])
	t1 := time.Now()
	if err != nil {
		tr.end(run)
		return outcome{}, err
	}
	if snk != nil {
		for i := range res.Records {
			snk.take(&res.Records[i])
		}
	}
	t2 := time.Now()
	o := outcome{instrs: res.Instret, halted: res.Halted, exit: res.ExitCode, result: res.ResultWord, ns: t2.Sub(t0).Nanoseconds()}
	if snk == nil {
		return o, nil
	}
	snk.fill(&o)
	if tr != nil {
		layer := "aot"
		if be == aotPlugin {
			layer = "aot.plugin"
		}
		runSpan := tr.fold(run, layer+".run", fold{calls: 1, busy: t1.Sub(t0).Nanoseconds(), first: tr.at(t0), last: tr.at(t1)})
		tr.fold(runSpan, layer+".runner", fold{calls: 1, busy: int64(res.ElapsedNs), first: tr.at(t0), last: tr.at(t0) + int64(res.ElapsedNs)})
		tr.fold(run, consumeLayer, fold{calls: o.records, busy: t2.Sub(t1).Nanoseconds(), first: tr.at(t1), last: tr.at(t2)})
		tr.end(run)
		if b.layerOn {
			b.layers.addAOT(be, o, t1.Sub(t0).Nanoseconds(), int64(res.ElapsedNs), t2.Sub(t1).Nanoseconds(),
				b.reg.Counter("aot.proto.rx").Load()-rx0, consumeLayer)
			b.layers.addSink(snk)
		}
	}
	return o, nil
}

// orgDef is one Figure-1 organization. run reports, through injected, how
// many faults its hook injected.
type orgDef struct {
	name string
	// ref names the reference outcome: functional-first is compared with
	// the benchmark's own functional-first loop; the others with their
	// own first run.
	ref string
	run func(i *isa.ISA, prog *asm.Program, injected *uint64) (*orgs.Result, error)
}

// bugReg is the register the timing-first hook corrupts; it is not the
// hardwired zero register on any bundled ISA.
const bugReg = 2

// orgDefs returns the five organizations. The timing-first hook corrupts a
// register every faultK-th instruction, and the checker must repair each
// one. The spec-FF hook requests a rollback on every faultK-th non-load
// record; re-executing a non-load never applies the override, so the run's
// outcome stays checkable. classSlot is instr_class's slot in one_decode,
// whose visibility one_decode_spec shares.
func (b *bench) orgDefs(classSlot int) []orgDef {
	k := b.faultK
	return []orgDef{
		{name: "integrated", run: func(i *isa.ISA, prog *asm.Program, _ *uint64) (*orgs.Result, error) {
			return orgs.RunIntegrated(i, prog, budget)
		}},
		{name: "functional_first", ref: "one_decode", run: func(i *isa.ISA, prog *asm.Program, _ *uint64) (*orgs.Result, error) {
			return orgs.RunFunctionalFirst(i, prog, budget)
		}},
		{name: "timing_directed", run: func(i *isa.ISA, prog *asm.Program, _ *uint64) (*orgs.Result, error) {
			return orgs.RunTimingDirected(i, prog, budget)
		}},
		{name: "timing_first", run: func(i *isa.ISA, prog *asm.Program, injected *uint64) (*orgs.Result, error) {
			bug := func(seq uint64, m *mach.Machine, _ *core.Record) bool {
				if seq%k != k-1 {
					return false
				}
				r := m.Spaces[0]
				r.Write(bugReg, r.Read(bugReg)^1)
				*injected++
				return true
			}
			return orgs.RunTimingFirst(i, prog, budget, bug)
		}},
		{name: "spec_functional_first", run: func(i *isa.ISA, prog *asm.Program, injected *uint64) (*orgs.Result, error) {
			verify := func(seq uint64, _ *mach.Machine, rec *core.Record) *uint64 {
				if seq%k != 0 || rec.Vals[classSlot] == pipeline.ClassLoad {
					return nil
				}
				*injected++
				var v uint64
				return &v
			}
			return orgs.RunSpecFunctionalFirst(i, prog, budget, 0, verify)
		}},
	}
}

// orgCells builds the orgs workload's cells per ISA: the benchmark's
// functional-first loop (one_decode records into the pipeline model) on
// both backends, and the five organizations. The interpreter loop comes
// first: it fixes the cycle counts the other two functional-first cells
// must reproduce.
func (b *bench) orgCells(sets []*isaSet) ([]*cell, error) {
	var first, rest []*cell
	for _, is := range sets {
		sim, err := b.synth(is, "one_decode")
		if err != nil {
			return nil, err
		}
		classSlot, ok := sim.Layout.Slot("instr_class")
		if !ok {
			return nil, fmt.Errorf("%s/one_decode: instr_class is not visible", is.isa.Name)
		}
		newFF := func() (sink, error) { return newTimingSink(sim.Layout) }
		first = append(first, b.interpCell(is, "one_decode", sim, newFF, "timing.pipeline"))
		bin, err := b.buildRunner(is, sim)
		if err != nil {
			return nil, err
		}
		rest = append(rest, b.aotCell(is, "one_decode", bin, nil, newFF, "timing.pipeline"))
		for _, od := range b.orgDefs(classSlot) {
			rest = append(rest, b.orgCell(is, od))
		}
	}
	return append(first, rest...), nil
}

// orgCell runs one organization over the mix. The runner builds its own
// simulator, machine and timing model per call, so the clock covers the
// whole call; modelled caches start empty in every run.
func (b *bench) orgCell(is *isaSet, od orgDef) *cell {
	c := &cell{name: is.isa.Name + "/" + od.name + "/interp", backend: interp, org: od.name}
	ref, setsRef := od.ref, od.ref == ""
	if setsRef {
		ref = "org." + od.name
	}
	c.visit = func(measured bool) {
		id := b.tr.begin(c.name)
		defer b.tr.end(id)
		for k, prog := range is.progs {
			run := b.tr.beginRun()
			var injected uint64
			start := time.Now()
			r, err := od.run(is.isa, prog, &injected)
			ns := time.Since(start).Nanoseconds()
			b.tr.end(run)
			var o outcome
			if err == nil {
				o = outcome{instrs: r.Instrs, halted: r.Halted, exit: int64(r.ExitCode), ns: ns,
					hasCycles: true, cycles: r.Cycles, injected: injected, recovered: r.Mismatches + r.Rollbacks}
				if v, f := r.Machine.Mem.Load(prog.Symbols["result"], 4); f == mach.FaultNone {
					o.result = uint32(v)
				}
			}
			b.finish(c, refKey{is.isa.Name, ref, k}, setsRef, o, err, measured)
			if err == nil && measured {
				b.layers.addOrg(od.name, o)
			}
		}
	}
	return c
}
