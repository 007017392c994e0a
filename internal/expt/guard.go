package expt

// Crash containment for the sweep engine: every cell measurement runs
// guarded, so a panic, hang, or runaway program in one {ISA × interface}
// cell is converted into a typed *CellError on that cell while every other
// cell's result stays intact. The engine then renders the full table with
// the failing cells marked instead of aborting the sweep.

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"singlespec/internal/aot"
	"singlespec/internal/checkpoint"
	"singlespec/internal/sysemu"
)

// CellErrorKind classifies why a sweep cell failed.
type CellErrorKind int

const (
	// CellFailed is a measurement error from the cell itself (synthesis
	// failure, nonzero exit, stuck machine). Deterministic: not retried.
	CellFailed CellErrorKind = iota
	// CellPanic is a recovered panic in the cell's worker.
	CellPanic
	// CellTimeout is a wall-clock watchdog expiry.
	CellTimeout
	// CellBudget is an exceeded per-cell instruction budget. Deterministic:
	// not retried.
	CellBudget
	// CellInterrupted is a cell cut short (or never started) because the
	// sweep received a shutdown signal. Not retried in this process; a
	// resumed run computes it fresh.
	CellInterrupted
)

func (k CellErrorKind) String() string {
	switch k {
	case CellPanic:
		return "panic"
	case CellTimeout:
		return "timeout"
	case CellBudget:
		return "budget"
	case CellInterrupted:
		return "interrupted"
	default:
		return "failed"
	}
}

// CellError reports the failure of one sweep cell. It satisfies error and
// unwraps to the underlying cause, so errors.Is sees through it.
type CellError struct {
	ISA      string
	Buildset string
	Kind     CellErrorKind
	Err      error
	// Stack is the recovered goroutine stack for CellPanic, nil otherwise.
	Stack []byte
	// Attempts counts how many times the cell was tried (at most 2: the
	// watchdog grants transient kinds one bounded retry).
	Attempts int
}

func (e *CellError) Error() string {
	return fmt.Sprintf("expt: cell %s/%s %s after %d attempt(s): %v",
		e.ISA, e.Buildset, e.Kind, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Sentinel causes the limited runner reports; runCellOnce maps them to
// CellError kinds.
var (
	errDeadline    = errors.New("cell deadline exceeded")
	errBudget      = errors.New("cell instruction budget exceeded")
	errInterrupted = errors.New("sweep interrupted")
)

// Limits bounds one cell measurement. The zero value means unbounded.
type Limits struct {
	// MaxInstr caps simulated instructions (cumulative across the cell's
	// runs); 0 means unlimited.
	MaxInstr uint64
	// Deadline is the wall-clock cutoff; the zero time means none.
	Deadline time.Time

	// interrupt, when non-nil, aborts the run (as errInterrupted) at the
	// next chunk boundary once the channel is closed. Internal wiring from
	// Config.Interrupt.
	interrupt <-chan struct{}
	// ckptEvery > 0 captures an in-cell resume checkpoint roughly every
	// that many retired instructions (at chunk boundaries) and hands it to
	// ckptSink. Internal wiring from Config.CkptEvery.
	ckptEvery uint64
	ckptSink  func(rc *runCheckpoint)
	// chunkHook, when non-nil, runs at every chunk boundary (after any
	// checkpoint capture). Tests inject mid-run panics through it.
	chunkHook func(r *Runner)
}

// runChunk is the instruction granularity between watchdog checks. Go
// cannot preempt a runaway simulation loop from outside, so the watchdog is
// cooperative: RunLimited executes at most this many instructions per
// engine call and checks its limits in between. Large enough that the
// checks vanish in the noise, small enough that a hung cell is caught
// within a fraction of a second.
const runChunk = 1 << 20

// RunLimited executes the program once, like Run, but checks lim between
// execution chunks: a deadline or instruction-budget violation surfaces as
// an error instead of a hang. A machine that stops retiring instructions
// without halting (a fault loop) is also reported rather than spun on.
//
// When the runner was primed by restoreFrom, the first RunLimited call
// continues the restored in-flight run instead of resetting: the machine
// already holds the mid-run state, so the call returns that run's full
// totals (restored portion included) exactly as the uninterrupted run
// would have.
func (r *Runner) RunLimited(lim Limits) (instrs, work uint64, err error) {
	if r.resumed {
		r.resumed = false
	} else {
		if r.runs > 0 {
			r.reset()
		}
		r.runs++
	}
	nextCkpt := uint64(0)
	if lim.ckptEvery > 0 {
		nextCkpt = r.m.Instret + lim.ckptEvery
	}
	for !r.m.Halted {
		if lim.interrupt != nil {
			select {
			case <-lim.interrupt:
				return 0, 0, fmt.Errorf("expt: %s/%s: %w", r.i.Name, r.sim.BS.Name, errInterrupted)
			default:
			}
		}
		chunk := uint64(runChunk)
		if lim.ckptEvery > 0 && lim.ckptEvery < chunk {
			// The checkpoint cadence needs chunk boundaries at least that
			// fine; the watchdog check is cheap at this granularity too.
			chunk = lim.ckptEvery
		}
		if lim.MaxInstr > 0 {
			if r.m.Instret >= lim.MaxInstr {
				return 0, 0, fmt.Errorf("expt: %s/%s: %w after %d instructions",
					r.i.Name, r.sim.BS.Name, errBudget, r.m.Instret)
			}
			if rem := lim.MaxInstr - r.m.Instret; rem < chunk {
				chunk = rem
			}
		}
		n := r.x.Run(chunk)
		r.checks++
		if n == 0 && !r.m.Halted {
			return 0, 0, fmt.Errorf("expt: %s/%s stuck at pc %#x (no instructions retiring)",
				r.i.Name, r.sim.BS.Name, r.m.PC)
		}
		if !lim.Deadline.IsZero() && !r.m.Halted && time.Now().After(lim.Deadline) {
			return 0, 0, fmt.Errorf("expt: %s/%s: %w", r.i.Name, r.sim.BS.Name, errDeadline)
		}
		if nextCkpt > 0 && lim.ckptSink != nil && r.m.Instret >= nextCkpt && !r.m.Halted {
			nextCkpt = r.m.Instret + lim.ckptEvery
			lim.ckptSink(r.captureCheckpoint())
		}
		if lim.chunkHook != nil {
			lim.chunkHook(r)
		}
	}
	if r.m.ExitCode != 0 {
		return 0, 0, fmt.Errorf("expt: %s/%s exited %d", r.i.Name, r.sim.BS.Name, r.m.ExitCode)
	}
	w := r.x.Work()
	dw := w - r.prevW + r.resumeWork
	r.prevW = w
	r.resumeWork = 0
	return r.m.Instret, dw, nil
}

// runCheckpoint is an in-cell resume point: the complete mid-run state of
// a Runner (machine, OS emulation, run bookkeeping), captured at a chunk
// boundary. The guarded retry path restores from it so a transient failure
// re-executes only the instructions since the last checkpoint instead of
// the whole cell — and the serialized form goes through the full
// checkpoint binary format, so every retry also validates it end to end.
type runCheckpoint struct {
	// runs is the Runner.runs value of the in-flight run (1 = warmup).
	runs uint64
	// checks is the cooperative-watchdog check count at capture.
	checks uint64
	// workThisRun is the work the in-flight run had accumulated by the
	// capture point; credited back on restore so the completed run reports
	// its full work total.
	workThisRun uint64
	state       *checkpoint.State
	emu         sysemu.State
}

// captureCheckpoint snapshots the runner mid-run.
func (r *Runner) captureCheckpoint() *runCheckpoint {
	return &runCheckpoint{
		runs:        uint64(r.runs),
		checks:      r.checks,
		workThisRun: r.x.Work() - r.prevW + r.resumeWork,
		state:       checkpoint.Capture(r.m),
		emu:         r.emu.State(),
	}
}

// restoreFrom primes a fresh runner with a mid-run checkpoint: the next
// RunLimited call continues the restored run. The translation caches start
// cold (they are derived state, rebuilt on demand); the architectural
// outcome and the run's instruction/work totals are exact.
func (r *Runner) restoreFrom(rc *runCheckpoint) error {
	if err := checkpoint.Apply(rc.state, r.m); err != nil {
		return err
	}
	r.emu.SetState(rc.emu)
	r.x.FlushLocal()
	r.runs = int(rc.runs)
	r.checks = rc.checks
	r.prevW = r.x.Work()
	r.resumeWork = rc.workThisRun
	r.resumed = true
	return nil
}

// ckptMeta is the runner bookkeeping serialized alongside the machine
// state when a runCheckpoint goes through the binary format.
type ckptMeta struct {
	Runs        uint64       `json:"runs"`
	Checks      uint64       `json:"checks"`
	WorkThisRun uint64       `json:"work_this_run"`
	Emu         sysemu.State `json:"emu"`
}

// encode serializes the checkpoint through the versioned binary format
// (the runner bookkeeping rides in the meta section).
func (rc *runCheckpoint) encode() ([]byte, error) {
	meta, err := json.Marshal(ckptMeta{
		Runs: rc.runs, Checks: rc.checks, WorkThisRun: rc.workThisRun, Emu: rc.emu,
	})
	if err != nil {
		return nil, err
	}
	st := *rc.state
	st.Meta = map[string][]byte{"expt.runner": meta}
	return checkpoint.Encode(&st), nil
}

// decodeRunCheckpoint validates and decodes an encoded runCheckpoint.
func decodeRunCheckpoint(b []byte) (*runCheckpoint, error) {
	st, err := checkpoint.Decode(b)
	if err != nil {
		return nil, err
	}
	raw, ok := st.Meta["expt.runner"]
	if !ok {
		return nil, fmt.Errorf("expt: checkpoint has no runner metadata")
	}
	var m ckptMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("expt: checkpoint runner metadata: %w", err)
	}
	return &runCheckpoint{
		runs: m.Runs, checks: m.Checks, workThisRun: m.WorkThisRun,
		state: st, emu: m.Emu,
	}, nil
}

// retryPause is the delay before a transient cell's one bounded retry: an
// immediate retry tends to rediscover the same transient.
const retryPause = 25 * time.Millisecond

// runCellGuarded measures one cell under cfg's watchdog, converting panics
// and limit violations into a typed *CellError instead of letting them
// escape the worker. Transient kinds (panic, timeout) get exactly one
// retry; deterministic failures (measurement error, budget) and interrupts
// are reported immediately since retrying reproduces them (or the process
// is shutting down).
//
// The cell's progress — completed kernels, committed run totals, and the
// last in-cell checkpoint — survives the failed attempt in cp, so the
// retry resumes from the last checkpoint instead of re-running the cell
// from zero.
func runCellGuarded(j cellJob, cfg Config, minDur time.Duration) Cell {
	start := time.Now()
	cp := &cellProgress{ckptKernel: -1}
	var last *CellError
	for attempt := 1; attempt <= 2; attempt++ {
		if attempt > 1 {
			time.Sleep(retryPause)
		}
		c, cerr := runCellOnce(j, cfg, minDur, attempt, cp)
		if cerr == nil {
			c.Attempts = attempt
			c.Wall = time.Since(start)
			return c
		}
		cerr.Attempts = attempt
		last = cerr
		if cerr.Kind == CellFailed || cerr.Kind == CellBudget || cerr.Kind == CellInterrupted {
			break
		}
	}
	return Cell{ISA: j.progs.ISA.Name, Buildset: j.buildset, Backend: j.backend.cellTag(),
		Err: last, Attempts: last.Attempts, Wall: time.Since(start)}
}

// runCellOnce is one guarded measurement attempt.
func runCellOnce(j cellJob, cfg Config, minDur time.Duration, attempt int, cp *cellProgress) (c Cell, cerr *CellError) {
	defer func() {
		if r := recover(); r != nil {
			cerr = &CellError{
				ISA: j.progs.ISA.Name, Buildset: j.buildset, Kind: CellPanic,
				Err:   fmt.Errorf("panic: %v", r),
				Stack: debug.Stack(),
			}
		}
	}()
	if cfg.testHook != nil {
		cfg.testHook(j.progs.ISA.Name, j.buildset, attempt)
	}
	lim := Limits{MaxInstr: cfg.MaxCellInstr, interrupt: cfg.Interrupt,
		ckptEvery: cfg.CkptEvery, chunkHook: cfg.testChunkHook}
	if cfg.CellTimeout > 0 {
		lim.Deadline = time.Now().Add(cfg.CellTimeout)
	}
	var cell Cell
	var err error
	if j.backend == BackendAOT {
		// The AOT path has no in-cell checkpointing (the state lives in a
		// subprocess); a granted retry re-measures the cell from scratch.
		cell, err = measureCellAOT(j.progs, j.buildset, j.opts, minDur, lim, cfg.Metric == MetricWork, cfg)
	} else {
		cell, err = measureCell(j.progs, j.buildset, j.opts, minDur, lim, cfg.Metric == MetricWork, cp)
	}
	if err != nil {
		kind := CellFailed
		var aotTimeout *aot.TimeoutError
		switch {
		case errors.Is(err, errDeadline):
			kind = CellTimeout
		case errors.As(err, &aotTimeout):
			// A wedged runner process hit its hard deadline and was killed;
			// transient, so the guard's bounded retry applies.
			kind = CellTimeout
		case errors.Is(err, errBudget):
			kind = CellBudget
		case errors.Is(err, errInterrupted):
			kind = CellInterrupted
		}
		return Cell{}, &CellError{
			ISA: j.progs.ISA.Name, Buildset: j.buildset, Kind: kind, Err: err,
		}
	}
	return cell, nil
}

// CellErrors collects the errors of failed cells in cell order, for callers
// that rendered a degraded table and want to report why.
func CellErrors(cells []Cell) []*CellError {
	var out []*CellError
	for _, c := range cells {
		if c.Err != nil {
			out = append(out, c.Err)
		}
	}
	return out
}

// errMark is the marker rendered into a table for a failed cell.
func errMark(e *CellError) string { return "ERR:" + e.Kind.String() }
