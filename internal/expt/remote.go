package expt

// Remote measurement support for the distributed sweep fabric
// (internal/fabric): job specs that identify a sweep cell over the wire,
// serializable mid-cell progress snapshots (so a lease takeover resumes
// mid-kernel on another worker), and the journal-format cell encoding the
// coordinator and workers exchange. Everything here round-trips
// deterministic cell state exactly: encoding/json renders float64 in the
// shortest form that parses back bit-identically, []byte as base64, and
// the embedded machine checkpoint goes through the versioned CRC/SHA
// binary format — so a cell measured across a takeover is byte-identical
// to one measured in a single process.

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/obs"
	"singlespec/internal/stats"
)

// JobSpec identifies one sweep cell for remote execution: everything a
// worker needs (beyond its own sweep Config) to measure the cell. Its Key
// is the same stable identity the run journal uses, so coordinator-side
// resume journals and worker results speak one namespace.
type JobSpec struct {
	ISA      string       `json:"isa"`
	Buildset string       `json:"buildset"`
	Opts     core.Options `json:"opts"`
	Backend  Backend      `json:"backend,omitempty"`
}

// Key returns the spec's stable identity (identical to the run-journal
// cell key for the same measurement).
//
// The key format is a compatibility contract: it names cells in resume
// journals, fabric segment files, and wire frames, so it must not change
// across versions — a changed key silently orphans every journaled cell
// and forces recomputation. The options portion is therefore an explicit
// field-by-field canonical encoding (see canonicalOpts), not a reflective
// dump of core.Options.
func (s JobSpec) Key() string {
	k := s.ISA + "/" + s.Buildset + "/" + canonicalOpts(s.Opts)
	if s.Backend == BackendAOT {
		k += "/aot"
	}
	return k
}

// canonicalOpts renders core.Options in the key's canonical form. The
// format is frozen: it byte-matches the fmt %+v rendering the key
// historically used, so journals and segments written by earlier versions
// still resolve. It deliberately names each field: adding, removing, or
// reordering fields in core.Options no longer changes existing keys out
// from under the journals. A new option field that affects measurement
// must be appended here explicitly — and only with a migration story for
// old journals (TestJobSpecKeyGolden and TestJobSpecKeyCoversOptions
// enforce both directions).
func canonicalOpts(o core.Options) string {
	return fmt.Sprintf("{NoTranslate:%t NoDCE:%t ForceRecords:%t MaxBlockLen:%d CacheCap:%d}",
		o.NoTranslate, o.NoDCE, o.ForceRecords, o.MaxBlockLen, o.CacheCap)
}

// TableIIJobSpecs lists the Table II sweep's cells under cfg, in the
// deterministic order TableII schedules them (backend-major, ISA-major,
// buildset-minor). The coordinator leases exactly this list; the merged
// cell slice is ordered by it.
func TableIIJobSpecs(cfg Config) []JobSpec {
	backends := []Backend{BackendInterp}
	switch cfg.Backend {
	case BackendAOT:
		backends = []Backend{BackendAOT}
	case BackendBoth:
		backends = []Backend{BackendInterp, BackendAOT}
	}
	var specs []JobSpec
	for _, be := range backends {
		for _, name := range isa.Names() {
			for _, bs := range isa.StdBuildsets {
				specs = append(specs, JobSpec{ISA: name, Buildset: bs, Backend: be})
			}
		}
	}
	return specs
}

// ProgressSink receives mid-cell progress: a serialized snapshot (decode
// with the same package on any host) and the cell's retired-instruction
// total so far. Fired at commit points — checkpoint captures and kernel
// boundaries — never mid-chunk.
type ProgressSink func(snapshot []byte, instret uint64)

// MeasureSpec measures one cell for the fabric: like the engine's internal
// guarded path, but resuming from a serialized progress snapshot (resume,
// nil for a fresh cell) and streaming new snapshots to sink. It returns
// the measured cell and whether the resume snapshot was actually applied —
// a damaged snapshot is dropped (the cell restarts from scratch) per the
// resume semantics, never half-applied.
func MeasureSpec(progs *Programs, spec JobSpec, cfg Config, resume []byte, sink ProgressSink) (Cell, bool) {
	cp := &cellProgress{ckptKernel: -1}
	resumed := false
	if len(resume) > 0 {
		if rcp, err := decodeProgress(resume, len(progs.Progs)); err == nil {
			cp = rcp
			resumed = true
		} else {
			// A damaged or inconsistent snapshot is dropped, never
			// half-applied: the cell restarts from scratch and the drop is
			// visible in the registry instead of silently eating progress.
			cfg.Obs.Counter("fabric.snapshot_dropped").Inc()
		}
	}
	if sink != nil {
		cp.onProgress = func(cp *cellProgress) {
			if b, err := encodeProgress(cp); err == nil {
				sink(b, cp.instret+cp.curInstrs)
			}
		}
	}
	j := cellJob{progs: progs, buildset: spec.Buildset, opts: spec.Opts, backend: spec.Backend}
	return runCellGuardedFrom(j, cfg, cfg.MinDur, cp), resumed
}

// progressWire is the serialized form of cellProgress. The embedded
// machine checkpoint (Ckpt) stays in its versioned binary format, so a
// takeover validates it end to end exactly like an on-disk checkpoint.
type progressWire struct {
	KernelsDone int       `json:"kernels_done"`
	Used        uint64    `json:"used"`
	Instret     uint64    `json:"instret"`
	WorkUnits   uint64    `json:"work_units"`
	MIPS        []float64 `json:"mips,omitempty"`
	NS          []float64 `json:"ns,omitempty"`
	Work        []float64 `json:"work,omitempty"`
	Stats       CellStats `json:"stats"`
	WarmupDone  bool      `json:"warmup_done"`
	CurInstrs   uint64    `json:"cur_instrs"`
	CurWork     uint64    `json:"cur_work"`
	CurElapsed  int64     `json:"cur_elapsed_ns"`
	Ckpt        []byte    `json:"ckpt,omitempty"`
	CkptKernel  int       `json:"ckpt_kernel"`
}

func encodeProgress(cp *cellProgress) ([]byte, error) {
	return json.Marshal(progressWire{
		KernelsDone: cp.kernelsDone, Used: cp.used,
		Instret: cp.instret, WorkUnits: cp.workUnits,
		MIPS: cp.mips, NS: cp.ns, Work: cp.work, Stats: cp.stats,
		WarmupDone: cp.warmupDone,
		CurInstrs:  cp.curInstrs, CurWork: cp.curWork, CurElapsed: int64(cp.curElapsed),
		Ckpt: cp.ckpt, CkptKernel: cp.ckptKernel,
	})
}

// decodeProgress decodes and validates a progress snapshot. nKernels is
// the mix size the snapshot must fit (< 0 skips the bound checks, for
// callers without a mix at hand). Validation rejects not just malformed
// JSON but any state measureCell could not have committed: resuming such
// a snapshot would silently corrupt the cell's deterministic totals, so a
// takeover drops it and restarts the cell from scratch instead.
func decodeProgress(b []byte, nKernels int) (*cellProgress, error) {
	var w progressWire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("expt: progress snapshot: %w", err)
	}
	if err := w.validate(nKernels); err != nil {
		return nil, fmt.Errorf("expt: progress snapshot: %w", err)
	}
	return &cellProgress{
		kernelsDone: w.KernelsDone, used: w.Used,
		instret: w.Instret, workUnits: w.WorkUnits,
		mips: w.MIPS, ns: w.NS, work: w.Work, stats: w.Stats,
		warmupDone: w.WarmupDone,
		curInstrs:  w.CurInstrs, curWork: w.CurWork, curElapsed: time.Duration(w.CurElapsed),
		ckpt: w.Ckpt, ckptKernel: w.CkptKernel,
	}, nil
}

// validate checks that a decoded snapshot is a state measureCell could
// actually have committed. onProgress fires only at checkpoint captures
// and kernel boundaries, which pins down the invariants:
//   - the per-kernel slices are appended exactly once per finished kernel,
//     so their lengths equal KernelsDone, and every appended value is a
//     positive finite geomean input;
//   - the current-kernel accumulators are cleared at each boundary and
//     only grow after that kernel's warmup run completes, so CurInstrs,
//     CurWork, and CurElapsed are all zero while WarmupDone is false;
//   - Used and Instret advance in lockstep (both sum the same RunLimited
//     returns), so they are equal;
//   - a checkpoint always belongs to the in-flight kernel: Ckpt is present
//     iff CkptKernel != -1, and then CkptKernel == KernelsDone.
func (w *progressWire) validate(nKernels int) error {
	finitePos := func(vs []float64) bool {
		for _, v := range vs {
			if !(v > 0) || math.IsInf(v, 1) {
				return false
			}
		}
		return true
	}
	switch {
	case w.KernelsDone < 0 || w.CkptKernel < -1:
		return fmt.Errorf("implausible kernel indices (kernels_done %d, ckpt_kernel %d)",
			w.KernelsDone, w.CkptKernel)
	case len(w.MIPS) != w.KernelsDone || len(w.NS) != w.KernelsDone || len(w.Work) != w.KernelsDone:
		return fmt.Errorf("per-kernel slice lengths %d/%d/%d (mips/ns/work) disagree with kernels_done %d",
			len(w.MIPS), len(w.NS), len(w.Work), w.KernelsDone)
	case !finitePos(w.MIPS) || !finitePos(w.NS) || !finitePos(w.Work):
		return fmt.Errorf("per-kernel metrics contain non-positive or non-finite values")
	case !w.WarmupDone && (w.CurInstrs != 0 || w.CurWork != 0 || w.CurElapsed != 0):
		return fmt.Errorf("current-kernel totals present before warmup completed")
	case w.CurElapsed < 0:
		return fmt.Errorf("negative current-kernel elapsed time")
	case w.Used != w.Instret:
		return fmt.Errorf("budget accounting (used %d) disagrees with instret %d", w.Used, w.Instret)
	case (len(w.Ckpt) == 0) != (w.CkptKernel == -1):
		return fmt.Errorf("checkpoint presence (%d bytes) disagrees with ckpt_kernel %d",
			len(w.Ckpt), w.CkptKernel)
	case w.CkptKernel != -1 && w.CkptKernel != w.KernelsDone:
		return fmt.Errorf("checkpoint kernel %d is not the in-flight kernel %d",
			w.CkptKernel, w.KernelsDone)
	case nKernels >= 0 && w.KernelsDone > nKernels:
		return fmt.Errorf("kernels_done %d exceeds the %d-kernel mix", w.KernelsDone, nKernels)
	case nKernels >= 0 && w.CkptKernel >= nKernels:
		return fmt.Errorf("ckpt_kernel %d exceeds the %d-kernel mix", w.CkptKernel, nKernels)
	}
	return nil
}

// EncodeCellWire encodes one measured cell (with its job key) in the run
// journal's record payload format — the representation fabric workers send
// to the coordinator and segment files store.
func EncodeCellWire(key string, c Cell) ([]byte, error) {
	return json.Marshal(cellRecord(key, c))
}

// DecodeCellWire decodes an EncodeCellWire payload. The returned cell is
// marked as computed (not Restored): fabric cells were measured this run,
// just on another process.
func DecodeCellWire(b []byte) (string, Cell, error) {
	var r journalRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return "", Cell{}, fmt.Errorf("expt: cell wire record: %w", err)
	}
	if r.Type != "cell" || r.Cell == nil || r.Key == "" {
		return "", Cell{}, fmt.Errorf("expt: cell wire record: not a keyed cell record")
	}
	return r.Key, r.cell(), nil
}

// RecordCells merges the deterministic counters of a merged fabric sweep
// into reg — the same once-per-sweep aggregation runCells performs after a
// local sweep, so a fabric coordinator's non-fabric counter totals match a
// single-host run of the same configuration exactly.
func RecordCells(reg *obs.Registry, cells []Cell) { recordCells(reg, cells) }

// RenderTableII renders the Table II grid from measured (or merged) cells
// under cfg's metric and backend selection — the same rendering TableII
// performs after its local sweep, exposed so the fabric coordinator
// produces byte-identical output from remotely measured cells.
func RenderTableII(cfg Config, cells []Cell) *stats.Table {
	backends := []Backend{BackendInterp}
	switch cfg.Backend {
	case BackendAOT:
		backends = []Backend{BackendAOT}
	case BackendBoth:
		backends = []Backend{BackendInterp, BackendAOT}
	}
	byBS := map[string]map[string]Cell{}
	for _, c := range cells {
		k := c.Buildset + "/" + c.Backend
		if byBS[k] == nil {
			byBS[k] = map[string]Cell{}
		}
		byBS[k][c.ISA] = c
	}
	val := func(c Cell) any {
		if c.Err != nil {
			return errMark(c.Err)
		}
		return cfg.Metric.value(c)
	}
	// Columns come from the same isa.Names() list TableIIJobSpecs sweeps:
	// a newly registered ISA lands in the rendered table and geomeans the
	// moment it is swept, instead of being measured and silently dropped.
	names := isa.Names()
	t := stats.NewTable(append([]string{"Semantic", "Informational", "Spec."}, names...)...)
	for _, be := range backends {
		tag := ""
		if be == BackendAOT {
			tag = "aot"
		}
		for _, bs := range isa.StdBuildsets {
			sem, info, spec := rowLabel(bs)
			if be == BackendAOT {
				sem += " (aot)"
			}
			row := byBS[bs+"/"+tag]
			out := []any{sem, info, spec}
			for _, name := range names {
				out = append(out, val(row[name]))
			}
			t.Row(out...)
		}
		// Summary row per backend: the per-ISA geometric mean over the ok
		// interfaces. ERR cells are skipped in cellGeoMean — their zero
		// metrics would violate GeoMean's positive-input contract and wipe
		// the row.
		label := "ok cells"
		if be == BackendAOT {
			label = "ok aot cells"
		}
		var beCells []Cell
		for _, c := range cells {
			if c.Backend == tag {
				beCells = append(beCells, c)
			}
		}
		geo := []any{"geomean", label, ""}
		for _, name := range names {
			geo = append(geo, cellGeoMean(beCells, name, cfg.Metric))
		}
		t.Row(geo...)
	}
	return t
}
