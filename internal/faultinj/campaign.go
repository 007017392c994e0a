package faultinj

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/kernels"
	"singlespec/internal/obs"
)

// Config configures one campaign. The zero value (plus a seed) is a usable
// default campaign.
type Config struct {
	// Seed is the campaign seed; every fault placement, bit choice, and
	// schedule derives from it deterministically.
	Seed uint64
	// Events is the number of fault events attempted per cell (default 4).
	Events int
	// Workers is the worker-pool size; <= 0 means runtime.NumCPU(). The
	// report is byte-identical for any value.
	Workers int
	// Classes selects the fault classes to run; nil means all.
	Classes []Class
	// ISAs selects target ISAs for the per-kernel classes; nil means all
	// registered ISAs. The syscall class always runs its dedicated alpha64
	// retry program.
	ISAs []string
	// Kernels selects the workloads faults are injected into; nil means a
	// small default pair. Kernels run at their test-sized DefaultN.
	Kernels []string
	// MaxInstr bounds every individual run (default 20M instructions); a
	// cell that exceeds it is reported as errored, not hung.
	MaxInstr uint64
	// Obs, when non-nil, receives the campaign's per-class outcome
	// counters (planned/injected/recovered/faults/divergences/errors)
	// after the run. The report is deterministic, so the counters are
	// byte-identical across worker counts. Nil disables at zero cost.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if len(c.Classes) == 0 {
		c.Classes = AllClasses()
	}
	if len(c.ISAs) == 0 {
		c.ISAs = isa.Names()
	}
	if len(c.Kernels) == 0 {
		c.Kernels = []string{"sieve", "crc32"}
	}
	if c.MaxInstr == 0 {
		c.MaxInstr = 20_000_000
	}
	return c
}

// Result is the outcome of one campaign cell: one (ISA, kernel, class)
// combination with its own derived fault schedule.
type Result struct {
	ISA      string
	Kernel   string
	Class    Class
	Buildset string
	// Planned is how many fault events the schedule held; Injected how many
	// actually landed (an event can miss, e.g. no load reachable).
	Planned, Injected int
	// Recovered counts injections whose recovery protocol completed.
	Recovered int
	// Faults counts injections that raised an architectural fault (the
	// fetch class expects one per injection).
	Faults int
	// RefInstret is the clean run's retirement count.
	RefInstret uint64
	// ChainFollows is the faulted run's block-chain follow count (codegen
	// class only). The codegen campaign runs under the block interface, so
	// a nonzero value certifies its invalidation storms actually landed on
	// a chaining dispatcher rather than a cold one.
	ChainFollows uint64
	// Divergence is non-nil when the faulted run's state leaked past
	// recovery — the failure the campaign exists to catch.
	Divergence *Divergence
	// Err reports infrastructure failures (budget blown, panic, bad cell).
	Err error
}

// OK reports whether the cell completed with recovery fully transparent.
func (r Result) OK() bool { return r.Err == nil && r.Divergence == nil }

// Key returns the cell's stable identity ("ISA/class/kernel") — the same
// namespace CellSpec.Key uses. It seeds the cell's fault schedule and
// names the cell in the report.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%s", r.ISA, r.Class, r.Kernel)
}

// CellSpec identifies one campaign cell before it runs.
type CellSpec struct {
	ISA    string
	Kernel string
	Class  Class
}

// Key returns the spec's stable identity ("ISA/class/kernel").
func (s CellSpec) Key() string {
	return fmt.Sprintf("%s/%s/%s", s.ISA, s.Class, s.Kernel)
}

// CampaignCells expands a config into its deterministic cell order:
// class-major, then ISA, then kernel. This is the list a campaign runs;
// the report's rows follow it exactly.
func CampaignCells(cfg Config) []CellSpec {
	cfg = cfg.withDefaults()
	var out []CellSpec
	for _, cl := range cfg.Classes {
		if cl == ClassSyscall {
			// The syscall class needs a program written to retry; it ships
			// its own (alpha64), independent of the kernel list.
			out = append(out, CellSpec{ISA: "alpha64", Kernel: "sysretry", Class: cl})
			continue
		}
		for _, isaName := range cfg.ISAs {
			for _, k := range cfg.Kernels {
				out = append(out, CellSpec{ISA: isaName, Kernel: k, Class: cl})
			}
		}
	}
	return out
}

// Run executes a campaign: every cell independently injects its schedule of
// faults, recovers, and differentially checks the result. Cells fan out
// across a worker pool; results are collected by cell index, so the report
// is byte-identical for any worker count. Cell failures (divergences,
// errors, panics) are contained in their Result — Run itself only fails on
// configuration errors.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	for _, k := range cfg.Kernels {
		if kernels.ByName(k) == nil {
			return nil, fmt.Errorf("faultinj: unknown kernel %q", k)
		}
	}
	specs := CampaignCells(cfg)
	results := make([]Result, len(specs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				results[idx] = runCell(specs[idx], cfg, injectOpts{})
			}
		}()
	}
	for i := range specs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	rep := &Report{Seed: cfg.Seed, Results: results}
	rep.record(cfg.Obs)
	return rep, nil
}

// runCell executes one cell under a recover barrier: a panicking cell is
// reported in its Result and never takes down the campaign.
func runCell(cs CellSpec, cfg Config, opts injectOpts) (res Result) {
	res = Result{ISA: cs.ISA, Kernel: cs.Kernel, Class: cs.Class, Buildset: cs.Class.buildset()}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("faultinj: cell %s panicked: %v\n%s", res.Key(), r, debug.Stack())
		}
	}()
	// The per-cell stream depends on the campaign seed and the cell's
	// identity, never on scheduling order.
	rng := NewRNG(SplitMix64(cfg.Seed^hashKey(res.Key())), hashKey(res.Key()))
	i, err := isa.Load(cs.ISA)
	if err != nil {
		res.Err = err
		return res
	}
	var prog *asm.Program
	if cs.Class == ClassSyscall {
		a, err := asm.New(i)
		if err != nil {
			res.Err = err
			return res
		}
		if prog, err = a.Assemble("sysretry.s", sysRetrySource); err != nil {
			res.Err = err
			return res
		}
	} else {
		k := kernels.ByName(cs.Kernel)
		if k == nil {
			res.Err = fmt.Errorf("faultinj: unknown kernel %q", cs.Kernel)
			return res
		}
		if prog, err = kernels.BuildProgram(i, k.Build(k.DefaultN)); err != nil {
			res.Err = err
			return res
		}
	}
	sim, err := core.Synthesize(i.Spec, res.Buildset, core.Options{})
	if err != nil {
		res.Err = err
		return res
	}

	if cs.Class == ClassSyscall {
		got, ref := newRun(i, prog, sim), newRun(i, prog, sim)
		res.Planned = cfg.Events
		res.Injected, res.Recovered, res.Divergence, res.Err =
			injectSyscalls(got, ref, rng, cfg.Events, cfg.MaxInstr)
		res.RefInstret = ref.m.Instret
		return res
	}

	// Pass 1: a clean run fixes the schedule space (total retirements).
	clean := newRun(i, prog, sim)
	if err := clean.runAll(cfg.MaxInstr); err != nil {
		res.Err = fmt.Errorf("faultinj: clean run: %w", err)
		return res
	}
	res.RefInstret = clean.m.Instret
	events := pickEvents(rng, res.RefInstret, cfg.Events)
	res.Planned = len(events)

	// Pass 2: the faulted run, checked differentially against a reference.
	got := newRun(i, prog, sim)
	switch cs.Class {
	case ClassLoad:
		ref := newRun(i, prog, sim)
		res.Injected, res.Recovered, res.Divergence, res.Err =
			injectLoads(got, ref, rng, events, cfg.MaxInstr, opts)
	case ClassFetch:
		ref := newRun(i, prog, sim)
		res.Injected, res.Faults, res.Recovered, res.Divergence, res.Err =
			injectFetches(got, ref, rng, events, cfg.MaxInstr, opts)
	case ClassSquash:
		ref := newRun(i, prog, sim)
		res.Injected, res.Recovered, res.Divergence, res.Err =
			injectSquashes(got, ref, rng, events, cfg.MaxInstr, opts)
	case ClassCodeGen:
		// The completed clean run doubles as the end-state reference.
		res.Injected, res.Divergence, res.Err =
			injectCodeGen(got, clean, rng, events, cfg.MaxInstr)
		res.Recovered = res.Injected
		res.ChainFollows = got.x.Stats().BlockChainFollows
	default:
		res.Err = fmt.Errorf("faultinj: unhandled class %v", cs.Class)
	}
	return res
}
