package fabric

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"singlespec/internal/expt"
	"singlespec/internal/isa"
	"singlespec/internal/obs"
)

// These tests prove the fabric's central claim: a sweep distributed over
// any number of workers — with any placement, and with workers killed
// mid-cell and their leases taken over from heartbeat-shipped progress —
// produces output byte-identical (in every deterministic field) to the
// single-host engine.

// sweepCfg is the shared sweep configuration: the deterministic work
// metric and a checkpoint cadence that yields ~20 mid-cell progress
// commits per ~1M-instruction cell (enough for takeover snapshots without
// dominating the runtime), with a registry per run.
func sweepCfg(reg *obs.Registry) expt.Config {
	return expt.Config{Scale: 1, MinDur: time.Millisecond, Workers: 2,
		Metric: expt.MetricWork, CkptEvery: 50000, Obs: reg}
}

// detLine renders one cell's deterministic fields. Host timing (MIPS,
// ns/instr, wall, queue wait) and the translation-cache statistics (which
// legitimately depend on where a takeover resumed, exactly like an
// in-process retry resume) are excluded — same contract as EXPERIMENTS.md.
func detLine(c expt.Cell) string {
	status := "ok"
	if c.Err != nil {
		status = c.Err.Kind.String()
	}
	return fmt.Sprintf("%s/%s/%s %s attempts=%d instret=%d work=%d wpi=%v",
		c.ISA, c.Buildset, c.Backend, status, c.Attempts, c.Instret, c.WorkUnits, c.WorkPerInstr)
}

func detLines(cells []expt.Cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = detLine(c)
	}
	return out
}

// scrubbedSnapshot renders a registry snapshot with the fabric-topology
// counters removed: lease grants, heartbeats, and reconnects depend on
// placement and timing; everything else must match a local run exactly.
func scrubbedSnapshot(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	s := reg.Snapshot()
	for k := range s.Counters {
		if strings.HasPrefix(k, "fabric.") {
			delete(s.Counters, k)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localReference measures the sweep on the single-host engine, once per
// test binary (the fabric runs under test must all match this same
// reference, so recomputing it per test would only burn time).
var refOnce sync.Once
var refState struct {
	cells []expt.Cell
	tab   string
	snap  string
	err   error
}

func localReference(t *testing.T) ([]expt.Cell, string, string) {
	t.Helper()
	refOnce.Do(func() {
		reg := obs.NewRegistry()
		cfg := sweepCfg(reg)
		cells, tab, err := expt.TableII(cfg)
		if err != nil {
			refState.err = err
			return
		}
		refState.cells, refState.tab = cells, tab.String()
		refState.snap = scrubbedSnapshot(t, reg)
	})
	if refState.err != nil {
		t.Fatal(refState.err)
	}
	return refState.cells, refState.tab, refState.snap
}

// runFabric runs one coordinator with the given workers (started
// concurrently) and returns the merged cells, rendered table, and the
// coordinator's registry.
func runFabric(t *testing.T, coordCfg Config, workers []WorkerConfig) ([]expt.Cell, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	coordCfg.Sweep = sweepCfg(reg)
	if coordCfg.Addr == "" {
		coordCfg.Addr = "127.0.0.1:0"
	}
	coordCfg.SegmentDir = t.TempDir()
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range workers {
		w := workers[i]
		w.Addr = coord.Addr()
		if w.Sweep.Scale == 0 {
			w.Sweep = sweepCfg(obs.NewRegistry())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker exit errors are expected in the death/expiry tests;
			// the coordinator-side assertions are the oracle.
			_ = RunWorker(w)
		}()
	}
	cells, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	tab := expt.RenderTableII(coordCfg.Sweep, cells)
	return cells, tab.String(), reg
}

// TestFabricSingleWorkerMatchesLocal is the graceful-degradation floor:
// a one-worker fabric reproduces the single-host sweep byte for byte —
// tables, deterministic cell fields, and the full (fabric-scrubbed)
// counter snapshot.
func TestFabricSingleWorkerMatchesLocal(t *testing.T) {
	refCells, refTab, refSnap := localReference(t)

	cells, tab, reg := runFabric(t, Config{}, []WorkerConfig{{ID: "solo"}})
	if tab != refTab {
		t.Errorf("1-worker fabric table differs from local:\nlocal:\n%s\nfabric:\n%s", refTab, tab)
	}
	want, got := detLines(refCells), detLines(cells)
	for i := range want {
		if i < len(got) && want[i] != got[i] {
			t.Errorf("cell %d: local %q, fabric %q", i, want[i], got[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cell count: local %d, fabric %d", len(want), len(got))
	}
	// No takeovers happened, so even the per-cell execution statistics are
	// identical: the scrubbed snapshots must match byte for byte.
	if snap := scrubbedSnapshot(t, reg); snap != refSnap {
		t.Errorf("1-worker fabric counter snapshot differs from local:\nlocal:  %s\nfabric: %s", refSnap, snap)
	}
}

// TestFabricPlacementAndDeathDeterminism is the acceptance oracle: the
// sweep merged from 3 workers, and from 3 workers with one killed mid-cell
// (its lease taken over from the heartbeat-shipped snapshot and resumed
// mid-kernel on another worker), is identical to the single-host run in
// every deterministic field.
func TestFabricPlacementAndDeathDeterminism(t *testing.T) {
	refCells, refTab, refSnap := localReference(t)
	refDet := detLines(refCells)

	t.Run("three_workers", func(t *testing.T) {
		cells, tab, reg := runFabric(t, Config{}, []WorkerConfig{
			{ID: "w-a"}, {ID: "w-b"}, {ID: "w-c"},
		})
		if tab != refTab {
			t.Errorf("3-worker table differs from local:\nlocal:\n%s\nfabric:\n%s", refTab, tab)
		}
		if got := detLines(cells); strings.Join(got, "\n") != strings.Join(refDet, "\n") {
			t.Errorf("3-worker deterministic fields differ:\nlocal:\n%s\nfabric:\n%s",
				strings.Join(refDet, "\n"), strings.Join(got, "\n"))
		}
		if snap := scrubbedSnapshot(t, reg); snap != refSnap {
			t.Errorf("3-worker counter snapshot differs from local")
		}
	})

	t.Run("worker_killed_mid_cell", func(t *testing.T) {
		// The victim ships every progress snapshot synchronously and is
		// killed after the fifth commit of its first cell: the coordinator
		// provably holds a mid-cell snapshot when the connection drops, so
		// the takeover resumes mid-kernel rather than from scratch.
		kill := make(chan struct{})
		var once sync.Once
		victim := WorkerConfig{ID: "w-victim",
			testBeatOnProgress: true,
			testKill:           kill,
			testOnProgress: func(key string, gen uint64) {
				if gen >= 5 {
					once.Do(func() { close(kill) })
				}
			},
		}
		cells, tab, reg := runFabric(t, Config{}, []WorkerConfig{
			victim, {ID: "w-b"}, {ID: "w-c"},
		})
		if tab != refTab {
			t.Errorf("kill-run table differs from local:\nlocal:\n%s\nfabric:\n%s", refTab, tab)
		}
		if got := detLines(cells); strings.Join(got, "\n") != strings.Join(refDet, "\n") {
			t.Errorf("kill-run deterministic fields differ:\nlocal:\n%s\nfabric:\n%s",
				strings.Join(refDet, "\n"), strings.Join(got, "\n"))
		}
		snap := reg.Snapshot()
		if snap.Counters["fabric.worker.disconnected"] == 0 {
			t.Error("expected the killed worker to be observed as disconnected")
		}
		if snap.Counters["fabric.lease.takeover"] == 0 {
			t.Error("expected at least one lease takeover")
		}
		if snap.Counters["fabric.lease.progress_resumed"] == 0 {
			t.Error("expected the taken-over cell to resume from the shipped snapshot")
		}
	})
}

// TestFabricRefusesStaleWorker: a worker whose sweep flags fingerprint
// differently (here: a different -scale) is refused at hello and reports a
// typed *RefusedError; a matching worker completes the sweep.
func TestFabricRefusesStaleWorker(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Addr: "127.0.0.1:0", Sweep: sweepCfg(reg), SegmentDir: t.TempDir()}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stale := sweepCfg(obs.NewRegistry())
	stale.Scale = 3 // fingerprints differently: would compute different cells
	staleErr := RunWorker(WorkerConfig{Addr: coord.Addr(), ID: "stale", Sweep: stale})
	var refused *RefusedError
	if !errors.As(staleErr, &refused) {
		t.Fatalf("stale worker: want *RefusedError, got %v", staleErr)
	}
	if !strings.Contains(refused.Reason, "fingerprint") {
		t.Errorf("refusal reason should name the fingerprint mismatch: %q", refused.Reason)
	}

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{Addr: coord.Addr(), ID: "good", Sweep: sweepCfg(obs.NewRegistry())})
	}()
	cells, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Errorf("good worker: %v", werr)
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Errorf("cell %s/%s errored: %v", c.ISA, c.Buildset, c.Err)
		}
	}
	if n := reg.Snapshot().Counters["fabric.worker.refused_stale"]; n != 1 {
		t.Errorf("fabric.worker.refused_stale = %d, want 1", n)
	}
}

// TestFabricLeaseExpiryTakeover: a worker that takes a lease but never
// heartbeats (hung-but-connected) has it reclaimed at TTL expiry and the
// cell completes on a live worker — the sweep cannot be stalled by a
// silent worker.
func TestFabricLeaseExpiryTakeover(t *testing.T) {
	reg := obs.NewRegistry()
	unblock := make(chan struct{})
	defer close(unblock)

	// TTL 2s: long enough that the live worker's heartbeats (every TTL/3)
	// keep its leases alive even under race-detector scheduling delays,
	// short enough that the hung worker's lease expires promptly. The
	// raised retry budget keeps a spurious expiry from ERR-marking a cell.
	cfg := Config{Addr: "127.0.0.1:0", Sweep: sweepCfg(reg),
		SegmentDir: t.TempDir(), LeaseTTL: 2 * time.Second, MaxCellTries: 5}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The hung worker: no heartbeats, and its first cell blocks at the
	// first progress commit until the test ends.
	var hangOnce sync.Once
	go func() {
		_ = RunWorker(WorkerConfig{Addr: coord.Addr(), ID: "hung",
			Sweep:      sweepCfg(obs.NewRegistry()),
			testNoBeat: true,
			testOnProgress: func(key string, gen uint64) {
				hangOnce.Do(func() { <-unblock })
			},
		})
	}()
	go func() {
		_ = RunWorker(WorkerConfig{Addr: coord.Addr(), ID: "live",
			Sweep: sweepCfg(obs.NewRegistry())})
	}()

	cells, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Errorf("cell %s/%s errored: %v", c.ISA, c.Buildset, c.Err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["fabric.lease.expired"] == 0 {
		t.Error("expected the hung worker's lease to expire")
	}
	if snap.Counters["fabric.lease.takeover"] == 0 {
		t.Error("expected the expired lease's cell to be re-leased")
	}
}

// TestFabricLostCellAfterRetryBound: when every worker holding a cell
// dies, the coordinator ERR-marks it with the typed taxonomy (kind "lost")
// after the bounded cross-worker retries instead of waiting forever — and
// the rest of the sweep still completes.
func TestFabricLostCellAfterRetryBound(t *testing.T) {
	reg := obs.NewRegistry()
	// Reclaims here are connection-death driven; the long TTL just keeps
	// race-detector scheduling delays from expiring healthy leases.
	cfg := Config{Addr: "127.0.0.1:0", Sweep: sweepCfg(reg),
		SegmentDir: t.TempDir(), MaxCellTries: 2, LeaseTTL: 2 * time.Second}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two sequential single-shot workers, each dying at its first progress
	// commit. Each is the only connected worker, so each leases the lowest
	// pending cell — the same first cell twice. The second death exhausts
	// MaxCellTries=2 and ERR-marks it lost; a healthy worker then finishes
	// the remaining cells.
	for i := 0; i < 2; i++ {
		kill := make(chan struct{})
		var once sync.Once
		err := RunWorker(WorkerConfig{Addr: coord.Addr(), ID: fmt.Sprintf("crash-%d", i),
			Sweep:    sweepCfg(obs.NewRegistry()),
			testKill: kill,
			testOnProgress: func(key string, gen uint64) {
				once.Do(func() { close(kill) })
			},
		})
		if !errors.Is(err, ErrWorkerKilled) {
			t.Fatalf("crash worker %d: want ErrWorkerKilled, got %v", i, err)
		}
		// Wait for the coordinator to observe the death and reclaim the
		// lease before the next worker joins, so both crashes land on the
		// same (lowest pending) cell.
		deadline := time.Now().Add(5 * time.Second)
		for reg.Snapshot().Counters["fabric.worker.disconnected"] < uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("coordinator never observed crash worker %d disconnecting", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	go func() {
		_ = RunWorker(WorkerConfig{Addr: coord.Addr(), ID: "healthy",
			Sweep: sweepCfg(obs.NewRegistry())})
	}()
	cells, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, c := range cells {
		if c.Err != nil {
			if c.Err.Kind != expt.CellLost {
				t.Errorf("cell %s/%s: unexpected error kind %v", c.ISA, c.Buildset, c.Err.Kind)
				continue
			}
			lost++
			if c.Attempts != 2 {
				t.Errorf("lost cell %s/%s: attempts = %d, want 2", c.ISA, c.Buildset, c.Attempts)
			}
		}
	}
	if lost != 1 {
		t.Errorf("lost cells = %d, want exactly 1 (only the twice-crashed cell)", lost)
	}
	if n := reg.Snapshot().Counters["fabric.cell.lost"]; n != 1 {
		t.Errorf("fabric.cell.lost = %d, want 1", n)
	}
}

// TestMergeRefusesCorruptSegment (satellite: merge corruption): a segment
// damaged mid-file refuses the whole merge with a typed *SegmentError
// naming the worker, unwrapping to the offset-bearing corruption error —
// while a torn final record (the append in flight when a worker's
// coordinator died) is silently dropped per the resume semantics.
func TestMergeRefusesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	fp := "test-fingerprint"
	mk := func(worker string, keys ...string) string {
		path := filepath.Join(dir, worker+".sseg")
		seg, err := expt.CreateSegment(path, worker, fp)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			cell := expt.Cell{ISA: "alpha64", Buildset: "one_all_yes", Instret: 1000, WorkUnits: 5000}
			if err := seg.Append(k, cell); err != nil {
				t.Fatal(err)
			}
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pathA := mk("worker-a", "k1", "k2")
	pathB := mk("worker-b", "k3", "k4", "k5")

	// Baseline: both segments merge.
	merged, err := MergeSegments(map[string]string{"worker-a": pathA, "worker-b": pathB}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 5 {
		t.Fatalf("merged %d cells, want 5", len(merged))
	}

	// Corrupt worker-b's segment well before the final record: one byte in
	// the middle (inside the first cell record's payload), or one bit of
	// that record's length field, which lies outside the CRC and makes the
	// record claim to run past EOF like a torn final append.
	clean, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	firstCell := 8 + int(binary.LittleEndian.Uint32(clean))
	for _, tc := range []struct {
		name   string
		damage func(data []byte)
	}{
		{"payload byte", func(data []byte) { data[len(data)/3] ^= 0xff }},
		{"length bit", func(data []byte) { data[firstCell+2] ^= 0x01 }},
	} {
		data := append([]byte(nil), clean...)
		tc.damage(data)
		if err := os.WriteFile(pathB, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = MergeSegments(map[string]string{"worker-a": pathA, "worker-b": pathB}, fp)
		var segErr *SegmentError
		if !errors.As(err, &segErr) {
			t.Fatalf("%s: corrupt segment: want *SegmentError, got %v", tc.name, err)
		}
		if segErr.Worker != "worker-b" {
			t.Errorf("%s: SegmentError names worker %q, want worker-b", tc.name, segErr.Worker)
		}
		var corrupt *expt.CorruptJournalError
		if !errors.As(err, &corrupt) {
			t.Fatalf("%s: SegmentError should unwrap to *expt.CorruptJournalError, got %v", tc.name, err)
		}
		if corrupt.Offset <= 0 {
			t.Errorf("%s: corruption offset = %d, want > 0 (damage is mid-file)", tc.name, corrupt.Offset)
		}
	}

	// A torn tail on worker-a (partial final append) merges minus the torn
	// record.
	full, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathA, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	merged, err = MergeSegments(map[string]string{"worker-a": pathA}, fp)
	if err != nil {
		t.Fatalf("torn tail should be dropped, not refused: %v", err)
	}
	if _, ok := merged["k1"]; !ok {
		t.Error("intact record k1 missing after torn-tail drop")
	}
	if _, ok := merged["k2"]; ok {
		t.Error("torn final record k2 should have been dropped")
	}

	// A segment from a different run's fingerprint is refused outright.
	_, err = MergeSegments(map[string]string{"worker-a": pathA}, "other-fingerprint")
	var fpErr *expt.FingerprintMismatchError
	if !errors.As(err, &fpErr) {
		t.Fatalf("mismatched fingerprint: want *expt.FingerprintMismatchError, got %v", err)
	}
}

// TestFabricWorkersShareAOTCache: two workers pointing -aot-cache at one
// shared directory compile each runner binary exactly once — the second
// worker's AOT cell is served entirely from the first worker's on-disk
// cache entry (verified by manifest hash, observable as aot.cache.hit with
// zero aot.build). It also pins the membership contract that makes sharing
// safe to deploy incrementally: the cache path is worker-local, NOT part of
// the sweep fingerprint, so workers with different -aot-cache values join
// the same run.
func TestFabricWorkersShareAOTCache(t *testing.T) {
	shared := t.TempDir()
	spec := expt.JobSpec{ISA: "alpha64", Buildset: "block_min", Backend: expt.BackendAOT}

	measureAs := func(workerID string) (expt.Cell, *obs.Registry) {
		reg := obs.NewRegistry()
		cfg := WorkerConfig{ID: workerID, Sweep: sweepCfg(reg)}
		cfg.Sweep.AOTCacheDir = shared
		mixes := map[string]*expt.Programs{}
		mix := func(name string) (*expt.Programs, error) {
			if p := mixes[name]; p != nil {
				return p, nil
			}
			i, err := isa.Load(name)
			if err != nil {
				return nil, err
			}
			p, err := expt.BuildMix(i, cfg.Sweep.Scale)
			if err != nil {
				return nil, err
			}
			mixes[name] = p
			return p, nil
		}
		cell, _ := measureSweepCell(cfg, mix, spec, nil, nil)
		return cell, reg
	}

	first, reg1 := measureAs("w1")
	if expt.IsNoToolchain(first) {
		t.Skip("skipping: go toolchain not available on PATH")
	}
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if got := reg1.Counter("aot.build").Load(); got != 1 {
		t.Fatalf("first worker aot.build = %d, want 1", got)
	}

	second, reg2 := measureAs("w2")
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if got := reg2.Counter("aot.cache.hit").Load(); got == 0 {
		t.Fatal("second worker never hit the shared AOT cache")
	}
	if got := reg2.Counter("aot.build").Load(); got != 0 {
		t.Fatalf("second worker rebuilt a cached runner: aot.build = %d", got)
	}
	if first.WorkPerInstr != second.WorkPerInstr || first.Instret != second.Instret {
		t.Fatalf("cached runner changed the measurement: first %s, second %s",
			detLine(first), detLine(second))
	}

	// Membership: the cache directory must not perturb the fingerprint —
	// otherwise a worker with a different local cache path would be refused.
	a, b := sweepCfg(obs.NewRegistry()), sweepCfg(obs.NewRegistry())
	a.AOTCacheDir, b.AOTCacheDir = "/cache/a", "/cache/b"
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("AOTCacheDir leaked into the sweep fingerprint; heterogeneous cache paths would split the fleet")
	}
}

// TestFabricSnapshotShape: the manifest fabric snapshot reports the fleet
// and every lease's terminal state.
func TestFabricSnapshotShape(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Addr: "127.0.0.1:0", Sweep: sweepCfg(reg), SegmentDir: t.TempDir()}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = RunWorker(WorkerConfig{Addr: coord.Addr(), ID: "w1", Sweep: sweepCfg(obs.NewRegistry())})
	}()
	cells, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	fs := coord.Snapshot()
	if len(fs.Workers) != 1 || fs.Workers[0] != "w1" {
		t.Errorf("snapshot workers = %v, want [w1]", fs.Workers)
	}
	if len(fs.Leases) != len(cells) {
		t.Fatalf("snapshot has %d leases, want %d", len(fs.Leases), len(cells))
	}
	for _, l := range fs.Leases {
		if l.State != "done" {
			t.Errorf("lease %s state %q after completion, want done", l.Key, l.State)
		}
	}
	if fs.Fingerprint != Fingerprint(cfg.Sweep) {
		t.Errorf("snapshot fingerprint mismatch")
	}
}
