package obs

import (
	"encoding/json"
	"os"
	"runtime"
)

// Manifest is the per-run record ssbench writes next to its tables: what
// ran (tool, toolchain, flags), what happened per sweep cell, and the
// aggregate metrics snapshot. It exists so a rates table can be traced
// back to the exact configuration — and instrumentation — that produced
// it.
//
// Determinism: under the work metric the Metrics section and every cell's
// status/attempts/instret/work_units fields are byte-identical across
// -parallel values and across runs on any host. The wall_ms and
// queue_wait_ms cell fields, and the go_version/os/arch header, are
// host-dependent by nature and excluded from that contract (see
// EXPERIMENTS.md, "Reading -metrics-out").
type Manifest struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	// Flags records the flag values the run was invoked with (including
	// the campaign seed when fault injection ran).
	Flags map[string]string `json:"flags"`
	// Interrupted records that the run was cut short by a shutdown signal
	// and wound down cleanly (manifest written).
	Interrupted bool          `json:"interrupted,omitempty"`
	Cells       []CellOutcome `json:"cells"`
	Metrics     Snapshot      `json:"metrics"`
}

// CellOutcome is the manifest record of one sweep or campaign cell.
type CellOutcome struct {
	ISA      string `json:"isa"`
	Buildset string `json:"buildset"`
	// Status is "ok", or the cell's error kind ("panic", "timeout",
	// "interrupted", "failed"), or a campaign verdict ("diverged", "error").
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	// Instret and WorkUnits are the cell's raw deterministic totals.
	Instret   uint64 `json:"instret"`
	WorkUnits uint64 `json:"work_units"`
	// WallMS and QueueWaitMS are host wall-clock observations; they vary
	// run to run and are excluded from the determinism contract.
	WallMS      float64 `json:"wall_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// NewManifest returns a manifest stamped with the current toolchain.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Flags:     map[string]string{},
	}
}

// MarshalIndent renders the manifest as indented JSON with sorted keys.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// WriteFile writes the manifest to path as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
