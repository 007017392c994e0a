package expt

// Crash containment for the sweep engine: every cell measurement runs
// guarded, so a panic or a measurement error in one {ISA × interface} cell
// is converted into a typed *CellError on that cell while every other
// cell's result stays intact. The engine then renders the full table with
// the failing cells marked instead of aborting the sweep.

import (
	"fmt"
	"runtime/debug"
	"time"
)

// CellErrorKind classifies why a sweep cell failed.
type CellErrorKind int

const (
	// CellFailed is a measurement error from the cell itself (synthesis
	// failure, nonzero exit, stuck machine).
	CellFailed CellErrorKind = iota
	// CellPanic is a recovered panic in the cell.
	CellPanic
)

func (k CellErrorKind) String() string {
	if k == CellPanic {
		return "panic"
	}
	return "failed"
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
}

func (e *CellError) Error() string {
	return fmt.Sprintf("expt: cell %s/%s %s: %v", e.ISA, e.Buildset, e.Kind, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// runCellGuarded measures one cell, converting a panic or a measurement
// error into a typed *CellError on the returned cell instead of letting it
// escape the sweep. The simulator is deterministic, so a failed cell is
// not retried: a second attempt would fail the same way.
func runCellGuarded(j cellJob, cfg Config) (c Cell) {
	start := time.Now()
	fail := func(kind CellErrorKind, err error, stack []byte) Cell {
		return Cell{ISA: j.progs.ISA.Name, Buildset: j.buildset, Err: &CellError{
			ISA: j.progs.ISA.Name, Buildset: j.buildset, Kind: kind, Err: err, Stack: stack,
		}}
	}
	defer func() {
		if r := recover(); r != nil {
			c = fail(CellPanic, fmt.Errorf("panic: %v", r), debug.Stack())
		}
		c.Wall = time.Since(start)
	}()
	if cfg.testHook != nil {
		cfg.testHook(j.progs.ISA.Name, j.buildset)
	}
	c, err := measureCell(j.progs, j.buildset, j.opts, cfg.MinDur, cfg.Metric == MetricWork)
	if err != nil {
		return fail(CellFailed, err, nil)
	}
	return c
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
