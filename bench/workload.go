package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/expt"
	"singlespec/internal/isa"
	"singlespec/internal/kernels"
	"singlespec/internal/obs"
)

// workload is one set of inputs the benchmark runs. README.md says why each
// exists and which layer it stresses.
type workload struct {
	name string
	// scale multiplies the Table II mix's problem sizes (expt.Mix(1)).
	scale float64
	// ifaces are the interfaces measured on both backends, records
	// delivered to the null consumer.
	ifaces []string
	// orgs selects the Figure-1 organizations plus the benchmark's own
	// functional-first loop on both backends.
	orgs bool
	// plugin adds, in traced runs, each AOT cell's in-process plugin
	// transport beside the pipe.
	plugin bool
}

// The scales keep a round near half a second on a quiet 2-CPU host, so ten
// rounds fit the measurement window even when host contention slows it.
var workloads = []workload{
	{name: "fastfwd", scale: 4, ifaces: []string{"block_min"}},
	{name: "stream", scale: 0.5, ifaces: []string{"one_all", "block_decode"}, plugin: true},
	{name: "detail", scale: 0.125, ifaces: []string{"one_decode_spec", "step_all_spec"}},
	{name: "orgs", scale: 0.25, orgs: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	workDir string
	spans   string
}

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// minRounds and the --seconds budget both bound the measurement: rounds
	// continue until both are met, so every (cell, kernel) pair's best run
	// is taken over at least ten runs, and every backend's over at least 180.
	minRounds = 10
	// budget is the retired-instruction limit of one run. The largest run
	// retires a few million instructions; one that reaches the budget has
	// hung and fails.
	budget = 1 << 30
	// runnerDeadline bounds every exchange with an AOT runner process.
	runnerDeadline = 60 * time.Second
	// sizeJitter is the half-width of the seeded problem-size band.
	sizeJitter = 0.2
	// quickScale shrinks every problem size in -quick mode.
	quickScale = 1.0 / 16
)

// kernelSize is one kernel of a workload's mix at its seeded problem size,
// with the checksum the kernel's pure-Go reference computes for it.
type kernelSize struct {
	name string
	n    int
	want uint32
	ir   *kernels.Prog
}

// pickSizes draws each kernel's problem size from a ±sizeJitter band around
// its base. listchase needs a power of two and is rounded to the nearest.
func pickSizes(rng *rand.Rand, scale float64) ([]kernelSize, error) {
	var out []kernelSize
	for _, me := range expt.Mix(1) {
		k := kernels.ByName(me.Kernel)
		if k == nil {
			return nil, fmt.Errorf("unknown kernel %q", me.Kernel)
		}
		f := 1 - sizeJitter + 2*sizeJitter*rng.Float64()
		n := max(int(math.Round(float64(me.N)*scale*f)), 8)
		if me.Kernel == "listchase" {
			n = 1 << int(math.Round(math.Log2(float64(n))))
		}
		out = append(out, kernelSize{name: me.Kernel, n: n, want: k.Ref(n), ir: k.Build(n)})
	}
	return out, nil
}

// isaSet is one loaded instruction set with the mix assembled for it.
type isaSet struct {
	isa   *isa.ISA
	progs []*asm.Program
}

// bench is the state of one workload's run.
type bench struct {
	w      workload
	cfg    config
	isas   []string
	sizes  []kernelSize
	rng    *rand.Rand
	faultK uint64 // period of the orgs workload's injected faults

	// tr is non-nil while traced work runs: the traced set-up and the
	// traced rounds of a --trace 1 run. layerOn is set during traced rounds,
	// whose runs feed the per-layer totals.
	tr      *tracer
	tracer  *tracer
	layerOn bool
	reg     *obs.Registry // protocol counters; traced runs only

	ops     tally
	refs    map[refKey]outcome
	streams map[streamKey]outcome

	// inSetup is set while a set-up runs; setupNs holds the last set-up's
	// time per layer.
	inSetup bool
	setupNs map[string]time.Duration
	// aotDir is the fresh runner cache of the current set-up.
	aotDir string
	// execs are the interpreter contexts of the current set-up.
	execs []*core.Exec
	// childPeakKB is the largest peak RSS of any runner process.
	childPeakKB int64

	// cells are the measured set-up's cells; rounds counts measured
	// rounds, and traced is set during a traced one.
	cells  []*cell
	rounds int
	traced bool
	layers layerAcc
}

func newBench(w workload, cfg config) (*bench, error) {
	b := &bench{
		w: w, cfg: cfg,
		isas: isa.Names(),
		rng:  rand.New(rand.NewPCG(cfg.seed, 0x5eed)),
	}
	scale := w.scale
	if cfg.quick {
		b.isas = b.isas[:1]
		scale *= quickScale
	}
	var err error
	if b.sizes, err = pickSizes(b.rng, scale); err != nil {
		return nil, err
	}
	b.faultK = 500 + b.rng.Uint64N(501)
	if cfg.trace {
		b.tracer = newTracer()
		b.reg = obs.NewRegistry()
		b.layers.cache = obs.NewRegistry()
	}
	return b, nil
}

// runWorkload sets the workload up, measures it, prints its report to out
// and returns its result line.
func runWorkload(w workload, cfg config, out io.Writer) (result, error) {
	b, err := newBench(w, cfg)
	if err != nil {
		return result{}, err
	}
	defer b.removeAOTDir()
	var cells []*cell
	var setups []float64
	reps := setupReps
	if cfg.quick || cfg.trace {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		// Drop the previous set-up's state before timing the next.
		b.removeAOTDir()
		cells, b.execs = nil, nil
		runtime.GC()
		b.tr = b.tracer
		start := time.Now()
		cells, err = b.setup()
		setups = append(setups, time.Since(start).Seconds())
		b.tr = nil
		if err != nil {
			return result{}, err
		}
	}
	b.cells = cells
	b.measure()
	res := b.report(out, setups)
	if b.tracer != nil {
		if err := b.tracer.write(cfg.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(b.tracer.spans), cfg.spans)
	}
	return res, nil
}

// quickAOTDir is the runner cache -quick runs share under the work
// directory, so repeated smoke runs build each runner once.
const quickAOTDir = "aot-quick"

func (b *bench) removeAOTDir() {
	if b.aotDir != "" && !b.cfg.quick {
		os.RemoveAll(b.aotDir)
	}
	b.aotDir = ""
}

// newAOTDir gives a set-up its runner cache: a fresh directory, so the
// set-up pays for building every runner.
func (b *bench) newAOTDir() error {
	dir := filepath.Join(b.cfg.workDir, quickAOTDir)
	if b.cfg.quick {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	} else {
		var err error
		if dir, err = os.MkdirTemp(b.cfg.workDir, "aot-"); err != nil {
			return err
		}
	}
	var err error
	b.aotDir, err = filepath.Abs(dir)
	return err
}

// setup does everything before the first measured round: load the ISAs,
// build the programs, synthesize the simulators, build the runners into a
// fresh cache directory, and run every (cell, kernel) once. The warm-up runs
// are checked like measured ones and fix each kernel's reference outcome.
func (b *bench) setup() ([]*cell, error) {
	b.inSetup, b.setupNs = true, map[string]time.Duration{}
	defer func() { b.inSetup = false }()
	id := b.tr.begin("setup")
	defer b.tr.end(id)

	if err := b.newAOTDir(); err != nil {
		return nil, err
	}
	b.refs, b.streams = map[refKey]outcome{}, map[streamKey]outcome{}

	var sets []*isaSet
	for _, name := range b.isas {
		is := &isaSet{}
		err := b.step("lis.load", func() (err error) {
			is.isa, err = isa.Load(name)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = b.step("program.build", func() error {
			for _, k := range b.sizes {
				prog, err := kernels.BuildProgram(is.isa, k.ir)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", name, k.name, err)
				}
				is.progs = append(is.progs, prog)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sets = append(sets, is)
	}

	var cells []*cell
	var err error
	if b.w.orgs {
		cells, err = b.orgCells(sets)
	} else {
		cells, err = b.interfaceCells(sets)
	}
	if err != nil {
		return nil, err
	}
	// Reference-setting (interpreter) cells come first in cells.
	wid := b.tr.begin("warmup")
	for _, c := range cells {
		c.visit(false)
	}
	b.tr.end(wid)
	return cells, nil
}

// step times one set-up step: a span when traced, and the layer's set-up
// total while a set-up runs.
func (b *bench) step(name string, f func() error) error {
	id := b.tr.begin(name)
	t0 := time.Now()
	err := f()
	if b.inSetup {
		b.setupNs[name] += time.Since(t0)
	}
	b.tr.end(id)
	return err
}

// measure runs rounds until both minRounds and the --seconds budget are
// met. A round visits every cell once, in a seeded order. A traced run
// alternates untraced and traced rounds, so the tracing overhead is measured
// in the same process; the end-to-end metrics of an untraced run never see a
// tracer.
func (b *bench) measure() {
	rounds, seconds := minRounds, b.cfg.seconds
	if b.cfg.quick {
		rounds, seconds = 1, 0
	}
	if b.cfg.trace {
		rounds *= 2
	}
	var m0 runtimeSample
	if b.cfg.trace {
		m0 = readRuntime()
	}
	start := time.Now()
	for ; b.rounds < rounds || time.Since(start).Seconds() < seconds; b.rounds++ {
		b.traced = b.cfg.trace && b.rounds%2 == 1
		if b.traced {
			b.tr, b.layerOn = b.tracer, true
		}
		id := b.tr.begin("round")
		for _, i := range b.rng.Perm(len(b.cells)) {
			b.cells[i].visit(true)
		}
		b.tr.end(id)
		b.tr, b.layerOn = nil, false
	}
	if b.cfg.trace {
		b.layers.runtime = readRuntime().sub(m0)
	}
}

// sample records one measured run of kernel k on c.
func (b *bench) sample(c *cell, k int, o outcome) {
	t := 0
	if b.traced {
		t = 1
	}
	if c.runs[t] == nil {
		c.runs[t] = make([][]float64, len(b.sizes))
	}
	c.runs[t][k] = append(c.runs[t][k], float64(o.ns)/float64(max(o.instrs, 1)))
	b.layers.allInstrs += o.instrs
}
