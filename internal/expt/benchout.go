package expt

import (
	"encoding/json"
	"fmt"
	"runtime"

	"singlespec/internal/obs"
)

// BenchSchema identifies the benchmark-output JSON layout. Bump only with
// an additive change; CI's perf-smoke comparison and external tooling key
// on it.
const BenchSchema = "ssbench-bench/v1"

// BenchOut is the stable machine-readable form of one Table II sweep: the
// per-(ISA, interface) speed grid plus enough provenance to interpret it.
// MIPS values are host observations and vary run to run; work_per_instr is
// the deterministic work-based metric regression gates compare against.
type BenchOut struct {
	Schema string `json:"schema"`
	// Metric is the metric the sweep was driven under ("mips" or "work");
	// both per-cell numbers are emitted regardless.
	Metric string `json:"metric"`
	Scale  int    `json:"scale"`
	// Go records toolchain and host platform ("go1.x linux/amd64") —
	// provenance for the non-deterministic MIPS numbers.
	Go    string      `json:"go"`
	Cells []BenchCell `json:"cells"`
}

// BenchCell is one grid entry. Numbers are zero (and Error set) for cells
// whose measurement failed.
type BenchCell struct {
	ISA          string  `json:"isa"`
	Buildset     string  `json:"buildset"`
	MIPS         float64 `json:"mips"`
	NsPerInstr   float64 `json:"ns_per_instr"`
	WorkPerInstr float64 `json:"work_per_instr"`
	Instret      uint64  `json:"instret"`
	WorkUnits    uint64  `json:"work_units"`
	Error        string  `json:"error,omitempty"`
}

// WriteBenchJSON writes the benchmark document of a sweep's cells to path,
// preserving cell order (TableII's order: ISA-major, buildset-minor). The
// file is indented with a trailing newline and replaced atomically
// (obs.WriteFileAtomic): a killed run, or a failed write, leaves the
// previous file whole, which matters when path is a committed baseline.
func WriteBenchJSON(path string, cfg Config, cells []Cell) error {
	out := BenchOut{
		Schema: BenchSchema,
		Metric: cfg.Metric.String(),
		Scale:  cfg.Scale,
		Go:     runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
	}
	for _, c := range cells {
		bc := BenchCell{
			ISA:          c.ISA,
			Buildset:     c.Buildset,
			MIPS:         c.MIPS,
			NsPerInstr:   c.NsPerInstr,
			WorkPerInstr: c.WorkPerInstr,
			Instret:      c.Instret,
			WorkUnits:    c.WorkUnits,
		}
		if c.Err != nil {
			bc.Error = c.Err.Error()
		}
		out.Cells = append(out.Cells, bc)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("expt: encode bench json: %w", err)
	}
	data = append(data, '\n')
	if err := obs.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("expt: write bench json: %w", err)
	}
	return nil
}
