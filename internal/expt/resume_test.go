package expt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

const testFP = "fp-test-0001"

// sweepJobs builds the standard three-buildset alpha64 job list used by
// the resume tests.
func sweepJobs(t *testing.T) []cellJob {
	progs := testMix(t)
	var jobs []cellJob
	for _, bs := range []string{"one_min", "block_min", "one_all"} {
		jobs = append(jobs, cellJob{progs: progs, buildset: bs})
	}
	return jobs
}

// assertCellsEqualDeterministic compares the deterministic fields of two
// sweeps (wall observations and the Restored flag excluded by design).
func assertCellsEqualDeterministic(t *testing.T, want, got []Cell) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("cell counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ISA != g.ISA || w.Buildset != g.Buildset {
			t.Fatalf("cell %d identity differs: %s/%s vs %s/%s", i, w.ISA, w.Buildset, g.ISA, g.Buildset)
		}
		if (w.Err == nil) != (g.Err == nil) {
			t.Fatalf("cell %s: error presence differs: %v vs %v", w.Buildset, w.Err, g.Err)
		}
		if w.Instret != g.Instret {
			t.Errorf("cell %s: instret %d vs %d", w.Buildset, w.Instret, g.Instret)
		}
		if w.WorkUnits != g.WorkUnits {
			t.Errorf("cell %s: work units %d vs %d", w.Buildset, w.WorkUnits, g.WorkUnits)
		}
		if w.WorkPerInstr != g.WorkPerInstr {
			t.Errorf("cell %s: work/instr %v vs %v", w.Buildset, w.WorkPerInstr, g.WorkPerInstr)
		}
	}
}

// TestJournalRoundTrip writes cells to a journal in a directory it has to
// create, reopens it in resume mode, and checks the cells reload with
// lineage intact.
func TestJournalRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs", "run1")
	j, err := OpenJournal(dir, "run-1", testFP, false)
	if err != nil {
		t.Fatal(err)
	}
	ok := Cell{ISA: "alpha64", Buildset: "one_min", Instret: 1234, WorkUnits: 5678,
		WorkPerInstr: 4.6, Attempts: 1}
	ok.Stats.WatchdogChecks = 9
	if err := j.Record("alpha64/one_min/k", ok); err != nil {
		t.Fatal(err)
	}
	bad := Cell{ISA: "alpha64", Buildset: "one_all", Attempts: 1,
		Err: &CellError{ISA: "alpha64", Buildset: "one_all", Kind: CellBudget,
			Err: errors.New("budget blown"), Attempts: 1}}
	if err := j.Record("alpha64/one_all/k", bad); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, "run-2", testFP, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.ParentRunID() != "run-1" {
		t.Errorf("parent run id = %q, want run-1", j2.ParentRunID())
	}
	if j2.Restored() != 2 {
		t.Errorf("restored = %d, want 2", j2.Restored())
	}
	c, found := j2.Lookup("alpha64/one_min/k")
	if !found {
		t.Fatal("ok cell not found after reopen")
	}
	if !c.Restored || c.Instret != 1234 || c.WorkUnits != 5678 ||
		c.WorkPerInstr != 4.6 || c.Stats.WatchdogChecks != 9 {
		t.Errorf("reloaded cell lost fields: %+v", c)
	}
	c, found = j2.Lookup("alpha64/one_all/k")
	if !found {
		t.Fatal("failed cell not found after reopen")
	}
	if c.Err == nil || c.Err.Kind != CellBudget {
		t.Errorf("reloaded failure lost its kind: %+v", c.Err)
	}
}

// TestJournalGuards covers the open-time refusals: an existing journal
// without resume, and a fingerprint mismatch.
func TestJournalGuards(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, "run-1", testFP, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var ee *JournalExistsError
	if _, err := OpenJournal(dir, "run-2", testFP, false); !errors.As(err, &ee) {
		t.Errorf("reopen without resume: err = %v, want JournalExistsError", err)
	}
	var fe *FingerprintMismatchError
	if _, err := OpenJournal(dir, "run-2", "other-config", true); !errors.As(err, &fe) {
		t.Fatalf("fingerprint skew: err = %v, want FingerprintMismatchError", err)
	}
	if fe.Got != testFP || fe.Want != "other-config" {
		t.Errorf("mismatch detail wrong: %+v", fe)
	}
}

// TestJournalTornTailDropped simulates a process killed mid-append: the
// incomplete final record must be dropped on resume (and overwritten by
// later appends), while the intact records survive.
func TestJournalTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, "run-1", testFP, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k1", Cell{ISA: "alpha64", Buildset: "one_min", Instret: 10}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k2", Cell{ISA: "alpha64", Buildset: "block_min", Instret: 20}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 9} {
		torn := data[:len(data)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir, "run-2", testFP, true)
		if err != nil {
			t.Fatalf("cut %d: torn tail not tolerated: %v", cut, err)
		}
		if _, found := j2.Lookup("k1"); !found {
			t.Errorf("cut %d: intact record k1 lost", cut)
		}
		if _, found := j2.Lookup("k2"); found {
			t.Errorf("cut %d: torn record k2 surfaced", cut)
		}
		// The journal must be appendable past the truncation point.
		if err := j2.Record("k2", Cell{ISA: "alpha64", Buildset: "block_min", Instret: 20}); err != nil {
			t.Fatalf("cut %d: append after torn-tail recovery: %v", cut, err)
		}
		j2.Close()
		j3, err := OpenJournal(dir, "run-3", testFP, true)
		if err != nil {
			t.Fatalf("cut %d: reopen after recovery: %v", cut, err)
		}
		if c, found := j3.Lookup("k2"); !found || c.Instret != 20 {
			t.Errorf("cut %d: re-recorded cell not readable", cut)
		}
		j3.Close()
	}
}

// TestJournalMidFileCorruptionRefused damages a record that has intact
// records after it: that is not a torn append, and resume must refuse with
// a typed error instead of quietly dropping completed work.
func TestJournalMidFileCorruptionRefused(t *testing.T) {
	// Records: header, k1, k2. Each case damages k1 (the second record),
	// leaving k2 intact after it.
	cases := []struct {
		name   string
		damage func(t *testing.T, data []byte, k1Off int)
	}{
		{"payload byte", func(t *testing.T, data []byte, k1Off int) {
			data[k1Off+8+4] ^= 0x20
			// Keep the framing parseable: only the payload is damaged, so
			// the CRC check is what must catch it.
			if crc32.ChecksumIEEE(data[k1Off+8:k1Off+8+int(binary.LittleEndian.Uint32(data[k1Off:]))]) ==
				binary.LittleEndian.Uint32(data[k1Off+4:]) {
				t.Fatal("test bug: flip did not change the CRC")
			}
		}},
		{"length bit", func(t *testing.T, data []byte, k1Off int) {
			// The length field is outside the CRC. One flipped bit makes k1
			// claim to run past EOF, like a torn final append, yet k2 still
			// follows intact: dropping the "tail" would discard both.
			data[k1Off+2] ^= 0x01
			if k1Off+8+int(binary.LittleEndian.Uint32(data[k1Off:])) <= len(data) {
				t.Fatal("test bug: flipped length still ends inside the file")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(dir, "run-1", testFP, false)
			if err != nil {
				t.Fatal(err)
			}
			j.Record("k1", Cell{ISA: "alpha64", Buildset: "one_min", Instret: 10})
			j.Record("k2", Cell{ISA: "alpha64", Buildset: "block_min", Instret: 20})
			j.Close()

			path := filepath.Join(dir, JournalName)
			data, _ := os.ReadFile(path)
			k1Off := 8 + int(binary.LittleEndian.Uint32(data))
			tc.damage(t, data, k1Off)
			os.WriteFile(path, data, 0o644)

			var ce *CorruptJournalError
			if _, err := OpenJournal(dir, "run-2", testFP, true); !errors.As(err, &ce) {
				t.Fatalf("mid-file corruption: err = %v, want CorruptJournalError", err)
			}
			if ce.Offset != int64(k1Off) {
				t.Errorf("corruption offset = %d, want %d (record k1)", ce.Offset, k1Off)
			}
			// A refused journal is left exactly as found.
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Errorf("refused journal modified: %d bytes, was %d", len(after), len(data))
			}
		})
	}
}

// TestSweepResumeMatchesUninterrupted is the cross-process resume
// differential: a sweep killed partway (simulated by truncating its journal
// to one completed cell plus a torn tail) and resumed must produce exactly
// the uninterrupted sweep's deterministic results, reloading the completed
// cell and computing the rest.
func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	jobs := sweepJobs(t)
	base := Config{Workers: 2, Metric: MetricWork}

	// Reference: uninterrupted, journal-free.
	ref := runCells(jobs, base, 0)

	// First run: durable, completes everything.
	dir := t.TempDir()
	j1, err := OpenJournal(dir, "run-1", testFP, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Journal = j1
	first := runCells(jobs, cfg, 0)
	j1.Close()
	assertCellsEqualDeterministic(t, ref, first)

	// Simulate the kill: keep the header and the first cell record, plus a
	// torn fragment of the second.
	path := filepath.Join(dir, JournalName)
	data, _ := os.ReadFile(path)
	off := 0
	for rec := 0; rec < 2; rec++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	os.WriteFile(path, data[:off+5], 0o644)

	// Resumed run: must reload cell 1, recompute cells 2 and 3.
	j2, err := OpenJournal(dir, "run-2", testFP, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restored() != 1 {
		t.Fatalf("journal restored %d cells, want 1", j2.Restored())
	}
	cfg.Journal = j2
	resumed := runCells(jobs, cfg, 0)
	assertCellsEqualDeterministic(t, ref, resumed)
	restored, computed := SweepCounts(resumed)
	if restored != 1 || computed != 2 {
		t.Errorf("lineage counts restored=%d computed=%d, want 1/2", restored, computed)
	}
	// Record order in the journal is completion order, so the surviving
	// record can be any of the three cells; exactly the one it names must
	// be marked restored.
	survivor := j2.restoredKeys[0]
	for i, c := range resumed {
		if want := jobs[i].key() == survivor; c.Restored != want {
			t.Errorf("cell %d Restored = %v, want %v", i, c.Restored, want)
		}
	}
}

// TestInterruptedSweepWindsDown closes the interrupt channel before the
// sweep starts: every cell must be marked interrupted without running, and
// none may be journaled.
func TestInterruptedSweepWindsDown(t *testing.T) {
	jobs := sweepJobs(t)
	dir := t.TempDir()
	j, err := OpenJournal(dir, "run-1", testFP, false)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	cfg := Config{Workers: 2, Metric: MetricWork, Journal: j, Interrupt: stop}
	cells := runCells(jobs, cfg, 0)
	j.Close()
	for _, c := range cells {
		if c.Err == nil || c.Err.Kind != CellInterrupted {
			t.Errorf("cell %s/%s not marked interrupted: %+v", c.ISA, c.Buildset, c.Err)
		}
	}
	j2, err := OpenJournal(dir, "run-2", testFP, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restored() != 0 {
		t.Errorf("interrupted cells were journaled: restored = %d", j2.Restored())
	}
}

// TestMidRunInterruptIsTyped interrupts a cell that is already executing:
// the cooperative watchdog must stop it at a chunk boundary with the
// interrupted kind (not retried), so a signal handler never waits for a
// long cell to finish.
func TestMidRunInterruptIsTyped(t *testing.T) {
	progs := testMix(t)
	stop := make(chan struct{})
	var once atomic.Bool
	cfg := Config{
		Metric:    MetricWork,
		Interrupt: stop,
		CkptEvery: 500, // fine chunking so the interrupt lands mid-cell
		testChunkHook: func(r *Runner) {
			if once.CompareAndSwap(false, true) {
				close(stop)
			}
		},
	}
	cells := runCells([]cellJob{{progs: progs, buildset: "one_min"}}, cfg, 0)
	ce := cells[0].Err
	if ce == nil || ce.Kind != CellInterrupted {
		t.Fatalf("cell error = %+v, want interrupted", ce)
	}
	if ce.Attempts != 1 {
		t.Errorf("interrupted cell was retried: attempts = %d", ce.Attempts)
	}
	if !errors.Is(ce, errInterrupted) {
		t.Error("CellError does not unwrap to the interrupt sentinel")
	}
}

// TestRunnerMidRunCheckpointResume is the runner-level differential for
// the in-cell resume path: a run checkpointed mid-flight (through the full
// binary encode/decode) and continued on a fresh runner must report the
// same instruction and work totals as the uninterrupted run.
func TestRunnerMidRunCheckpointResume(t *testing.T) {
	progs := testMix(t)
	sim := mustSynth(t, progs.ISA, "one_min")
	prog := progs.Progs[0]

	ref := NewRunner(sim, progs.ISA, prog)
	wantIn, wantWk, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: capture at a fine cadence, stop mid-run via an
	// injected panic, resume on a fresh runner.
	broken := NewRunner(sim, progs.ISA, prog)
	var lastCkpt []byte
	stopAt := 3
	chunks := 0
	func() {
		defer func() { recover() }()
		broken.RunLimited(Limits{
			ckptEvery: 400,
			ckptSink: func(rc *runCheckpoint) {
				b, err := rc.encode()
				if err != nil {
					t.Error(err)
					return
				}
				lastCkpt = b
			},
			chunkHook: func(r *Runner) {
				chunks++
				if chunks == stopAt {
					panic("injected mid-run death")
				}
			},
		})
	}()
	if lastCkpt == nil {
		t.Fatal("no checkpoint captured before the injected death")
	}
	rc, err := decodeRunCheckpoint(lastCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if rc.state.Instret == 0 || rc.state.Instret >= wantIn {
		t.Fatalf("checkpoint not mid-run: instret %d of %d", rc.state.Instret, wantIn)
	}
	resumed := NewRunner(sim, progs.ISA, prog)
	if err := resumed.restoreFrom(rc); err != nil {
		t.Fatal(err)
	}
	gotIn, gotWk, err := resumed.RunLimited(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if gotIn != wantIn || gotWk != wantWk {
		t.Fatalf("resumed run totals (%d instr, %d work) differ from uninterrupted (%d, %d)",
			gotIn, gotWk, wantIn, wantWk)
	}
}

// TestGuardRetryResumesFromCheckpoint is the guard-level differential: a
// cell whose first attempt dies mid-kernel must, on its bounded retry,
// resume from the last in-cell checkpoint and still report exactly the
// clean run's deterministic totals with Attempts = 2.
func TestGuardRetryResumesFromCheckpoint(t *testing.T) {
	jobs := []cellJob{{progs: testMix(t), buildset: "one_min"}}
	clean := runCells(jobs, Config{Metric: MetricWork}, 0)
	if clean[0].Err != nil {
		t.Fatal(clean[0].Err)
	}

	var chunks atomic.Int64
	cfg := Config{
		Metric:    MetricWork,
		CkptEvery: 400,
		testChunkHook: func(r *Runner) {
			// Die deep into the cell, once: past several kernels' worth of
			// chunks, with checkpoints captured along the way.
			if chunks.Add(1) == 40 {
				panic("injected mid-cell death")
			}
		},
	}
	cells := runCells(jobs, cfg, 0)
	if cells[0].Err != nil {
		t.Fatalf("retry did not recover: %v", cells[0].Err)
	}
	if cells[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", cells[0].Attempts)
	}
	if cells[0].Instret != clean[0].Instret {
		t.Errorf("instret %d differs from clean run %d", cells[0].Instret, clean[0].Instret)
	}
	if cells[0].WorkUnits != clean[0].WorkUnits {
		t.Errorf("work units %d differ from clean run %d", cells[0].WorkUnits, clean[0].WorkUnits)
	}
	if cells[0].WorkPerInstr != clean[0].WorkPerInstr {
		t.Errorf("work/instr %v differs from clean run %v", cells[0].WorkPerInstr, clean[0].WorkPerInstr)
	}
}

// TestFingerprintSensitivity checks the fingerprint covers what determines
// results and ignores host knobs.
func TestFingerprintSensitivity(t *testing.T) {
	base := Config{Scale: 1, Metric: MetricWork}
	fp := Fingerprint("table2", base)
	if fp != Fingerprint("table2", base) {
		t.Error("fingerprint not stable")
	}
	host := base
	host.Workers = 7
	host.CkptEvery = 999
	if Fingerprint("table2", host) != fp {
		t.Error("host knobs changed the fingerprint")
	}
	for name, other := range map[string]Config{
		"scale":  {Scale: 2, Metric: MetricWork},
		"metric": {Scale: 1, Metric: MetricMIPS},
		"budget": {Scale: 1, Metric: MetricWork, MaxCellInstr: 5},
	} {
		if Fingerprint("table2", other) == fp {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
	if Fingerprint("ablations", base) == fp {
		t.Error("table change did not change the fingerprint")
	}
}
