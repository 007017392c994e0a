package checkpoint_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"singlespec/internal/checkpoint"
	"singlespec/internal/core"
	"singlespec/internal/faultinj"
	"singlespec/internal/isa"
	"singlespec/internal/isa/isatest"
	"singlespec/internal/kernels"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// simRun is one machine + exec + emulator, the trio a checkpoint must
// capture and restore as a unit.
type simRun struct {
	m   *mach.Machine
	x   *core.Exec
	emu *sysemu.Emulator
}

func newSimRun(t *testing.T, i *isa.ISA, sim *core.Sim, load bool) *simRun {
	t.Helper()
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	if load {
		k := kernels.ByName("crc32")
		prog, err := kernels.BuildProgram(i, k.Build(96))
		if err != nil {
			t.Fatal(err)
		}
		prog.LoadInto(m)
	}
	return &simRun{m: m, x: sim.NewExec(m), emu: emu}
}

func (r *simRun) runToHalt(t *testing.T) {
	t.Helper()
	for steps := 0; !r.m.Halted; steps++ {
		if steps > 1000 || r.x.Run(1<<20) == 0 && !r.m.Halted {
			t.Fatal("machine stuck or runaway")
		}
	}
	if r.m.ExitCode != 0 {
		t.Fatalf("program exited %d", r.m.ExitCode)
	}
}

// compareArch fails the test unless two machines are architecturally
// identical: registers, PC, halt state, instret, and the contents of every
// touched memory page. Page generations are deliberately excluded — they
// are microarchitectural bookkeeping that restore bumps by design.
func compareArch(t *testing.T, want, got *mach.Machine) {
	t.Helper()
	if eq, diff := want.Snapshot().Equal(got.Snapshot(), nil); !eq {
		t.Fatalf("architectural state diverged: %s", diff)
	}
	if want.Instret != got.Instret {
		t.Fatalf("instret %d vs %d", want.Instret, got.Instret)
	}
	if want.Halted != got.Halted || want.ExitCode != got.ExitCode {
		t.Fatalf("halt state (%v,%d) vs (%v,%d)", want.Halted, want.ExitCode, got.Halted, got.ExitCode)
	}
	bases := map[uint64]bool{}
	for _, b := range want.Mem.PageBases() {
		bases[b] = true
	}
	for _, b := range got.Mem.PageBases() {
		bases[b] = true
	}
	for b := range bases {
		wd, _ := want.Mem.PageImage(b)
		gd, _ := got.Mem.PageImage(b)
		if !bytes.Equal(wd, gd) {
			t.Fatalf("memory page %#x diverged", b)
		}
	}
}

// TestStateRoundTrip checks Capture → Encode → Decode → Apply reproduces
// the machine exactly, and that serialization is deterministic.
func TestStateRoundTrip(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	sim, err := core.Synthesize(i.Spec, "one_min", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := newSimRun(t, i, sim, true)
	r.x.Run(500) // park the machine mid-run

	st := checkpoint.Capture(r.m)
	st.Meta = map[string][]byte{"b": []byte("two"), "a": []byte("one")}
	enc := checkpoint.Encode(st)
	if !bytes.Equal(enc, checkpoint.Encode(st)) {
		t.Fatal("serialization is not deterministic")
	}
	st2, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Instret != st.Instret || st2.PC != st.PC || st2.JournalMark != st.JournalMark {
		t.Fatalf("progress fields lost: %+v vs %+v", st2, st)
	}
	if string(st2.Meta["a"]) != "one" || string(st2.Meta["b"]) != "two" {
		t.Fatalf("meta lost: %v", st2.Meta)
	}
	fresh := newSimRun(t, i, sim, false)
	if err := checkpoint.Apply(st2, fresh.m); err != nil {
		t.Fatal(err)
	}
	compareArch(t, r.m, fresh.m)
}

// TestMidRunCheckpointRestoreDifferential is the tentpole differential: a
// run checkpointed mid-flight, serialized, restored into a fresh machine,
// and continued must end byte-identical — registers, memory, instret,
// captured program output — to a run that was never interrupted.
func TestMidRunCheckpointRestoreDifferential(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	for _, bs := range []string{"one_min", "block_min", "one_all_spec"} {
		t.Run(bs, func(t *testing.T) {
			sim, err := core.Synthesize(i.Spec, bs, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Reference: uninterrupted run.
			ref := newSimRun(t, i, sim, true)
			ref.runToHalt(t)

			// Interrupted run: stop mid-flight, checkpoint through the full
			// serialize/deserialize path, restore into a fresh machine.
			broken := newSimRun(t, i, sim, true)
			broken.x.Run(700)
			if broken.m.Halted {
				t.Fatal("test needs a mid-run stop; program already halted")
			}
			st := checkpoint.Capture(broken.m)
			emuState := broken.emu.State()
			st2, err := checkpoint.Decode(checkpoint.Encode(st))
			if err != nil {
				t.Fatal(err)
			}
			resumed := newSimRun(t, i, sim, false)
			if err := checkpoint.Apply(st2, resumed.m); err != nil {
				t.Fatal(err)
			}
			resumed.emu.SetState(emuState)
			resumed.x.FlushLocal()
			resumed.runToHalt(t)

			compareArch(t, ref.m, resumed.m)
			if ref.emu.Stdout.String() != resumed.emu.Stdout.String() {
				t.Errorf("program output diverged: %q vs %q",
					ref.emu.Stdout.String(), resumed.emu.Stdout.String())
			}
		})
	}
}

// TestCheckpointAtMarkConsistentWithJournal proves the in-cell restore
// point interacts correctly with the speculation journal: a checkpoint
// captured after rolling back to a mark equals one captured before the
// speculation happened, and a checkpoint at a fully-committed point
// records a zero journal high-water mark.
func TestCheckpointAtMarkConsistentWithJournal(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	sim, err := core.Synthesize(i.Spec, "one_all_spec", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := newSimRun(t, i, sim, true)
	r.x.Run(300)
	if !r.m.JournalOn {
		t.Fatal("spec buildset did not enable the journal")
	}
	r.m.Journal.Reset()
	before := checkpoint.Encode(checkpoint.Capture(r.m))

	// Speculate past the capture point, then roll back to it.
	mark := r.m.Journal.Mark()
	sp := r.m.Spaces[0]
	r.m.WriteReg(sp, 1, 0xdead)
	r.m.WriteReg(sp, 2, 0xbeef)
	if f := r.m.StoreValue(0x40000, 0x77, 8); f != mach.FaultNone {
		t.Fatalf("store faulted: %v", f)
	}
	r.m.SetPC(r.m.PC + 64)
	r.m.Journal.Rollback(r.m, mark)

	// Page generations moved (store + undo), so compare decoded states
	// field-wise rather than raw bytes.
	after := checkpoint.Capture(r.m)
	b, err := checkpoint.Decode(before)
	if err != nil {
		t.Fatal(err)
	}
	if b.PC != after.PC || b.Instret != after.Instret || b.JournalMark != after.JournalMark {
		t.Fatalf("rollback did not return to the capture point: %+v vs %+v", b, after)
	}
	for si := range b.Spaces {
		for vi := range b.Spaces[si].Vals {
			if b.Spaces[si].Vals[vi] != after.Spaces[si].Vals[vi] {
				t.Fatalf("space %d reg %d diverged after rollback", si, vi)
			}
		}
	}
	// The speculative store may have mapped a fresh page; rollback restores
	// its bytes to zero but the page stays mapped. Architecturally a
	// zero-filled page equals an absent one, so compare by base with zeros
	// as the default.
	pageByBase := func(ps []checkpoint.PageState) map[uint64][]byte {
		m := make(map[uint64][]byte, len(ps))
		for _, p := range ps {
			m[p.Base] = p.Data
		}
		return m
	}
	bp, ap := pageByBase(b.Pages), pageByBase(after.Pages)
	zero := make([]byte, mach.PageSize())
	for base := range bp {
		if _, ok := ap[base]; !ok {
			ap[base] = zero
		}
	}
	for base, ad := range ap {
		wd, ok := bp[base]
		if !ok {
			wd = zero
		}
		if !bytes.Equal(wd, ad) {
			t.Fatalf("page %#x diverged after rollback", base)
		}
	}

	// Commit makes the writes permanent; a checkpoint taken there records
	// a zero high-water mark (fully committed restore point).
	r.m.WriteReg(sp, 1, 0xcafe)
	r.m.Journal.Commit(r.m.Journal.Mark())
	st := checkpoint.Capture(r.m)
	if st.JournalMark != 0 {
		t.Errorf("journal mark after full commit = %d, want 0", st.JournalMark)
	}
	if st.Spaces[0].Vals[1] != 0xcafe {
		t.Errorf("committed write missing from checkpoint")
	}
}

// validCheckpoint builds a real mid-run checkpoint to damage.
func validCheckpoint(t *testing.T) []byte {
	t.Helper()
	i := isatest.Load(t, "alpha64")
	sim, err := core.Synthesize(i.Spec, "one_min", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := newSimRun(t, i, sim, true)
	r.x.Run(400)
	st := checkpoint.Capture(r.m)
	st.Meta = map[string][]byte{"expt.progress": []byte(`{"k":1}`)}
	return checkpoint.Encode(st)
}

// TestReadTypedErrors drives every failure mode and checks it surfaces as
// its own typed error.
func TestReadTypedErrors(t *testing.T) {
	valid := validCheckpoint(t)

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xff
		var e *checkpoint.BadMagicError
		if _, err := checkpoint.Decode(b); !errors.As(err, &e) {
			t.Fatalf("err = %v, want BadMagicError", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[4] = checkpoint.Version + 1
		var e *checkpoint.VersionError
		if _, err := checkpoint.Decode(b); !errors.As(err, &e) {
			t.Fatalf("err = %v, want VersionError", err)
		}
		if e.Got != checkpoint.Version+1 || e.Want != checkpoint.Version {
			t.Errorf("VersionError = %+v", e)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must fail, and fail as truncation (or bad
		// magic for sub-4-byte prefixes), never silently succeed.
		for _, n := range []int{0, 3, 7, 11, 50, len(valid) / 2, len(valid) - 1} {
			_, err := checkpoint.Decode(valid[:n])
			if err == nil {
				t.Fatalf("prefix of %d bytes decoded successfully", n)
			}
			var te *checkpoint.TruncatedError
			if !errors.As(err, &te) {
				t.Fatalf("prefix %d: err = %v, want TruncatedError", n, err)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("prefix %d: TruncatedError does not unwrap to io.ErrUnexpectedEOF", n)
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		// Flip one byte mid-file (inside a section payload): the section
		// CRC must catch it.
		b := append([]byte(nil), valid...)
		b[len(b)/2] ^= 0x10
		var ce *checkpoint.CorruptError
		if _, err := checkpoint.Decode(b); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CorruptError", err)
		}
	})
	t.Run("trailer flip", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[len(b)-1] ^= 1
		var ce *checkpoint.CorruptError
		if _, err := checkpoint.Decode(b); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CorruptError (sha mismatch)", err)
		}
	})
}

// TestApplyMismatch restores an alpha64 checkpoint into an arm32 machine
// and expects a typed mismatch, not a panic or partial restore.
func TestApplyMismatch(t *testing.T) {
	valid := validCheckpoint(t)
	st, err := checkpoint.Decode(valid)
	if err != nil {
		t.Fatal(err)
	}
	other := isatest.Load(t, "arm32")
	m := other.Spec.NewMachine()
	var me *checkpoint.MismatchError
	if err := checkpoint.Apply(st, m); !errors.As(err, &me) {
		t.Fatalf("err = %v, want MismatchError", err)
	}
}

// isTypedCheckpointError reports whether err is one of the package's typed
// validation errors.
func isTypedCheckpointError(err error) bool {
	var (
		bm *checkpoint.BadMagicError
		ve *checkpoint.VersionError
		te *checkpoint.TruncatedError
		ce *checkpoint.CorruptError
	)
	return errors.As(err, &bm) || errors.As(err, &ve) || errors.As(err, &te) || errors.As(err, &ce)
}

// TestEveryBitFlipIsDetected sweeps seeded single-bit flips across the
// whole file and asserts none decodes cleanly: every byte is covered by a
// section CRC, the SHA-256 trailer, or structural validation.
func TestEveryBitFlipIsDetected(t *testing.T) {
	valid := validCheckpoint(t)
	rng := faultinj.NewRNG(42, 1)
	for trial := 0; trial < 256; trial++ {
		b := append([]byte(nil), valid...)
		off := rng.Intn(len(b))
		b[off] ^= byte(1 << uint(rng.Intn(8)))
		st, err := checkpoint.Decode(b)
		if err == nil {
			t.Fatalf("bit flip at offset %d decoded cleanly (instret %d)", off, st.Instret)
		}
		if !isTypedCheckpointError(err) {
			t.Fatalf("bit flip at offset %d: untyped error %v", off, err)
		}
	}
}
