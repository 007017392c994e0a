package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
)

// Manifest is the per-run record ssbench writes next to its tables: what
// ran (tool, toolchain, flags), what happened per sweep cell, and the
// aggregate metrics snapshot. It exists so a rates table can be traced
// back to the exact configuration — and instrumentation — that produced
// it.
//
// Determinism: under the work metric the Metrics section and every cell's
// status/instret/work_units fields are byte-identical from run to run on
// any host. The wall_ms cell field and the go_version/os/arch header are
// host-dependent by nature and excluded from that contract (see
// EXPERIMENTS.md, "Reading -metrics-out").
type Manifest struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	// Flags records the flag values the run was invoked with (including
	// the campaign seed when fault injection ran).
	Flags   map[string]string `json:"flags"`
	Cells   []CellOutcome     `json:"cells"`
	Metrics Snapshot          `json:"metrics"`
}

// CellOutcome is the manifest record of one sweep or campaign cell.
type CellOutcome struct {
	ISA      string `json:"isa"`
	Buildset string `json:"buildset"`
	// Status is "ok", or the cell's error kind ("panic", "failed"), or a
	// campaign verdict ("diverged", "error").
	Status string `json:"status"`
	// Instret and WorkUnits are the cell's raw deterministic totals.
	Instret   uint64 `json:"instret"`
	WorkUnits uint64 `json:"work_units"`
	// WallMS is a host wall-clock observation; it varies run to run and is
	// excluded from the determinism contract.
	WallMS float64 `json:"wall_ms"`
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

// WriteFile writes the manifest to path as indented JSON, through
// WriteFileAtomic.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic replaces path with data so that a reader, or a run killed
// partway, sees either the old file or the whole new one, never a torn
// one. It writes a temp file in path's directory, syncs and closes it, then
// renames it over path. On any failure the temp file is removed and path
// is left as it was.
func WriteFileAtomic(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
