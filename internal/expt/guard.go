package expt

// Crash containment for the sweep engine: every cell measurement runs
// guarded, so a panic or hang in one {ISA × interface} cell is converted
// into a typed *CellError on that cell while every other cell's result
// stays intact. The engine then renders the full table with the failing
// cells marked instead of aborting the sweep.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
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
	// CellInterrupted is a cell cut short (or never started) because the
	// sweep received a shutdown signal. Not retried.
	CellInterrupted
)

func (k CellErrorKind) String() string {
	switch k {
	case CellPanic:
		return "panic"
	case CellTimeout:
		return "timeout"
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
	errInterrupted = errors.New("sweep interrupted")
)

// Limits bounds one cell measurement. The zero value means unbounded.
type Limits struct {
	// Deadline is the wall-clock cutoff; the zero time means none.
	Deadline time.Time

	// interrupt, when non-nil, aborts the run (as errInterrupted) at the
	// next chunk boundary once the channel is closed. Internal wiring from
	// Config.Interrupt.
	interrupt <-chan struct{}
	// chunkHook, when non-nil, runs at every chunk boundary. Tests inject
	// mid-run faults through it.
	chunkHook func(r *Runner)
}

// runChunk is the instruction granularity between watchdog checks. Go
// cannot preempt a runaway simulation loop from outside, so the watchdog is
// cooperative: RunLimited executes at most this many instructions per
// engine call and checks its limits in between. Large enough that the
// checks vanish in the noise, small enough that a hung cell is caught
// within a fraction of a second.
const runChunk = 1 << 20

// RunLimited executes the program once, resetting the machine after a
// previous run and keeping translations warm, and checks lim between
// execution chunks: a deadline violation or an interrupt surfaces as an
// error instead of a hang. A machine that stops retiring instructions
// without halting (a fault loop) is also reported rather than spun on.
func (r *Runner) RunLimited(lim Limits) (instrs, work uint64, err error) {
	if r.ran {
		r.reset()
	}
	r.ran = true
	for !r.m.Halted {
		if lim.interrupt != nil {
			select {
			case <-lim.interrupt:
				return 0, 0, fmt.Errorf("expt: %s/%s: %w", r.i.Name, r.sim.BS.Name, errInterrupted)
			default:
			}
		}
		n := r.x.Run(runChunk)
		r.checks++
		if n == 0 && !r.m.Halted {
			return 0, 0, fmt.Errorf("expt: %s/%s stuck at pc %#x (no instructions retiring)",
				r.i.Name, r.sim.BS.Name, r.m.PC)
		}
		if !lim.Deadline.IsZero() && !r.m.Halted && time.Now().After(lim.Deadline) {
			return 0, 0, fmt.Errorf("expt: %s/%s: %w", r.i.Name, r.sim.BS.Name, errDeadline)
		}
		if lim.chunkHook != nil {
			lim.chunkHook(r)
		}
	}
	if r.m.ExitCode != 0 {
		return 0, 0, fmt.Errorf("expt: %s/%s exited %d", r.i.Name, r.sim.BS.Name, r.m.ExitCode)
	}
	w := r.x.Work()
	dw := w - r.prevW
	r.prevW = w
	return r.m.Instret, dw, nil
}

// retryPause is the delay before a transient cell's one bounded retry: an
// immediate retry tends to rediscover the same transient.
const retryPause = 25 * time.Millisecond

// runCellGuarded measures one cell under cfg's watchdog, converting panics
// and limit violations into a typed *CellError instead of letting them
// escape the worker. Transient kinds (panic, timeout) get exactly one
// retry, which re-measures the cell from scratch; measurement errors and
// interrupts are reported immediately, since a retry would reproduce them
// (or the process is shutting down).
func runCellGuarded(j cellJob, cfg Config, minDur time.Duration) Cell {
	start := time.Now()
	var last *CellError
	for attempt := 1; attempt <= 2; attempt++ {
		if attempt > 1 {
			time.Sleep(retryPause)
		}
		c, cerr := runCellOnce(j, cfg, minDur, attempt)
		if cerr == nil {
			c.Attempts = attempt
			c.Wall = time.Since(start)
			return c
		}
		cerr.Attempts = attempt
		last = cerr
		if cerr.Kind == CellFailed || cerr.Kind == CellInterrupted {
			break
		}
	}
	return Cell{ISA: j.progs.ISA.Name, Buildset: j.buildset,
		Err: last, Attempts: last.Attempts, Wall: time.Since(start)}
}

// runCellOnce is one guarded measurement attempt.
func runCellOnce(j cellJob, cfg Config, minDur time.Duration, attempt int) (c Cell, cerr *CellError) {
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
	lim := Limits{interrupt: cfg.Interrupt, chunkHook: cfg.testChunkHook}
	if cfg.CellTimeout > 0 {
		lim.Deadline = time.Now().Add(cfg.CellTimeout)
	}
	cell, err := measureCell(j.progs, j.buildset, j.opts, minDur, lim, cfg.Metric == MetricWork)
	if err != nil {
		kind := CellFailed
		switch {
		case errors.Is(err, errDeadline):
			kind = CellTimeout
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
