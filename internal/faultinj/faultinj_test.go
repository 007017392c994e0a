package faultinj

import (
	"strings"
	"testing"

	"singlespec/internal/obs"
)

// quickCfg is a small single-kernel campaign config used by most tests.
func quickCfg(seed uint64) Config {
	return Config{Seed: seed, Kernels: []string{"crc32"}, Events: 3}
}

// TestCampaignAllClassesRecover runs a default campaign over every class
// and checks the core contract: faults are injected, every recovery is
// transparent, and no cell errors.
func TestCampaignAllClassesRecover(t *testing.T) {
	rep, err := Run(quickCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("campaign ran no cells")
	}
	perClass := map[Class]int{}
	for _, res := range rep.Results {
		if res.Err != nil {
			t.Errorf("cell %s errored: %v", res.Key(), res.Err)
			continue
		}
		if res.Divergence != nil {
			t.Errorf("cell %s diverged: %v", res.Key(), res.Divergence)
			continue
		}
		if res.Recovered != res.Injected {
			t.Errorf("cell %s: injected %d but recovered %d", res.Key(), res.Injected, res.Recovered)
		}
		perClass[res.Class] += res.Injected
	}
	for _, cl := range AllClasses() {
		if perClass[cl] == 0 {
			t.Errorf("class %s injected no faults anywhere", cl)
		}
	}
}

// TestCampaignDeterministic renders the same seeded campaign at different
// worker counts and demands byte-identical reports.
func TestCampaignDeterministic(t *testing.T) {
	render := func(workers int) string {
		cfg := quickCfg(7)
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	serial := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); got != serial {
			t.Fatalf("report differs between 1 and %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				w, serial, w, got)
		}
	}
	if different := render(1); different != serial {
		t.Fatal("same seed produced different reports across runs")
	}
}

// TestDifferentSeedsDifferentSchedules is a sanity check that the seed
// actually steers the campaign.
func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	a, err := Run(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Skip("seeds 1 and 2 happened to coincide (schedules equal)")
	}
}

// TestFetchInjectionForcesFaultPath checks the fetch class drove the
// faultUnit path: every injected corruption raised FaultIllegal and halted
// with exit 128+fault (asserted inside the injector; a violation surfaces
// as a cell error).
func TestFetchInjectionForcesFaultPath(t *testing.T) {
	cfg := quickCfg(11).withDefaults()
	res := runCell(CellSpec{ISA: "alpha64", Kernel: "crc32", Class: ClassFetch}, cfg, injectOpts{})
	if res.Err != nil {
		t.Fatalf("fetch cell errored: %v", res.Err)
	}
	if res.Divergence != nil {
		t.Fatalf("fetch cell diverged: %v", res.Divergence)
	}
	if res.Injected == 0 {
		t.Fatal("fetch cell injected nothing")
	}
	if res.Faults != res.Injected {
		t.Errorf("faults = %d, want one per injection (%d)", res.Faults, res.Injected)
	}
}

// TestLoadDivergenceDetected breaks the load-recovery protocol on purpose
// (no rollback after the corrupted instruction) and requires the
// differential checker to notice.
func TestLoadDivergenceDetected(t *testing.T) {
	cfg := quickCfg(5).withDefaults()
	res := runCell(CellSpec{ISA: "alpha64", Kernel: "crc32", Class: ClassLoad}, cfg,
		injectOpts{skipRecovery: true})
	if res.Err != nil {
		t.Fatalf("cell errored instead of diverging: %v", res.Err)
	}
	if res.Injected == 0 {
		t.Fatal("no fault landed; the knob test proves nothing")
	}
	if res.Divergence == nil {
		t.Fatal("unrecovered load corruption was not detected")
	}
}

// TestFetchDivergenceDetected leaves the corrupted instruction in place:
// the run dies on it, and the checker must report the early halt.
func TestFetchDivergenceDetected(t *testing.T) {
	cfg := quickCfg(5).withDefaults()
	res := runCell(CellSpec{ISA: "alpha64", Kernel: "crc32", Class: ClassFetch}, cfg,
		injectOpts{skipRecovery: true})
	if res.Err != nil {
		t.Fatalf("cell errored instead of diverging: %v", res.Err)
	}
	if res.Injected == 0 {
		t.Fatal("no fault landed")
	}
	if res.Divergence == nil {
		t.Fatal("dead machine compared equal to the completed reference")
	}
}

// TestSquashDivergenceDetected rolls the journal back but "forgets" the
// PC/Instret restore — the half-finished squash must be caught immediately.
func TestSquashDivergenceDetected(t *testing.T) {
	cfg := quickCfg(5).withDefaults()
	res := runCell(CellSpec{ISA: "alpha64", Kernel: "crc32", Class: ClassSquash}, cfg,
		injectOpts{skipRestore: true})
	if res.Err != nil {
		t.Fatalf("cell errored instead of diverging: %v", res.Err)
	}
	if res.Injected == 0 {
		t.Fatal("no squash window executed")
	}
	if res.Divergence == nil {
		t.Fatal("half-finished squash was not detected")
	}
}

// TestSyscallRetriesAbsorbFaults runs the syscall class alone and checks
// the retry program fully absorbed a non-empty fault schedule.
func TestSyscallRetriesAbsorbFaults(t *testing.T) {
	cfg := Config{Seed: 9, Events: 6, Classes: []Class{ClassSyscall}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("syscall class ran %d cells, want 1", len(rep.Results))
	}
	res := rep.Results[0]
	if !res.OK() {
		t.Fatalf("syscall cell failed: div=%v err=%v", res.Divergence, res.Err)
	}
	if res.Injected == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	if !strings.Contains(rep.String(), "syscall") {
		t.Error("report does not mention the syscall class")
	}
}

// TestCampaignContainsPanickingCell feeds Run a kernel list that makes one
// class's cells fail while others succeed — the campaign must complete with
// the failure contained in its Result.
func TestCampaignContainsPanickingCell(t *testing.T) {
	// An unknown kernel is rejected up front...
	if _, err := Run(Config{Seed: 1, Kernels: []string{"no_such_kernel"}}); err == nil {
		t.Error("unknown kernel not rejected")
	}
	// ...while a panic inside a cell is contained (drive runCell directly
	// with a spec that makes program construction blow up downstream).
	cfg := quickCfg(3).withDefaults()
	res := runCell(CellSpec{ISA: "alpha64", Kernel: "no_such_kernel", Class: ClassLoad}, cfg, injectOpts{})
	if res.Err == nil {
		t.Fatal("bad cell reported no error")
	}
}

// TestRNGDeterminism pins the PCG stream so accidental algorithm changes
// (which would silently re-shuffle every campaign) fail loudly.
func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42, 7), NewRNG(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43, 7)
	same := true
	for i := 0; i < 16; i++ {
		if b.Uint32() != c.Uint32() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Error("SplitMix64 collision on adjacent inputs")
	}
}

// TestParseClasses covers the flag-parsing surface.
func TestParseClasses(t *testing.T) {
	all, err := ParseClasses("all")
	if err != nil || len(all) != len(AllClasses()) {
		t.Fatalf("ParseClasses(all) = %v, %v", all, err)
	}
	two, err := ParseClasses("load, fetch")
	if err != nil || len(two) != 2 || two[0] != ClassLoad || two[1] != ClassFetch {
		t.Fatalf("ParseClasses(load, fetch) = %v, %v", two, err)
	}
	if _, err := ParseClasses("cosmic-ray"); err == nil {
		t.Error("unknown class accepted")
	}
	for _, c := range AllClasses() {
		if got, err := ParseClasses(c.String()); err != nil || len(got) != 1 || got[0] != c {
			t.Errorf("round trip failed for %s", c)
		}
	}
}

// TestCampaignObsCounters checks a campaign's obs export: the per-class
// counters must add up to exactly the report's own totals, and the
// manifest outcomes must mirror the cells one-to-one.
func TestCampaignObsCounters(t *testing.T) {
	cfg := quickCfg(42)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wantInjected := map[string]uint64{}
	wantRecovered := map[string]uint64{}
	for _, res := range rep.Results {
		wantInjected[res.Class.String()] += uint64(res.Injected)
		wantRecovered[res.Class.String()] += uint64(res.Recovered)
	}
	for cl, want := range wantInjected {
		if got := snap.Counters["faultinj."+cl+".injected"]; got != want {
			t.Errorf("%s injected counter = %d, want %d", cl, got, want)
		}
		if got := snap.Counters["faultinj."+cl+".recovered"]; got != wantRecovered[cl] {
			t.Errorf("%s recovered counter = %d, want %d", cl, got, wantRecovered[cl])
		}
	}
	outs := rep.Outcomes()
	if len(outs) != len(rep.Results) {
		t.Fatalf("%d outcomes for %d results", len(outs), len(rep.Results))
	}
	for i, o := range outs {
		if o.Status != "ok" {
			t.Errorf("outcome %d status %q (clean campaign)", i, o.Status)
		}
		if !strings.Contains(o.Buildset, "/"+rep.Results[i].Kernel) {
			t.Errorf("outcome %d buildset %q missing kernel", i, o.Buildset)
		}
	}
}

// TestCodeGenCampaignExercisesChaining: the codegen class runs on the
// block interface, whose dispatcher chains blocks; the campaign is only a
// meaningful stress of chain invalidation if links are actually being
// followed between the injected storms.
func TestCodeGenCampaignExercisesChaining(t *testing.T) {
	cfg := quickCfg(42)
	cfg.Classes = []Class{ClassCodeGen}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var follows uint64
	for _, res := range rep.Results {
		if res.Err != nil || res.Divergence != nil {
			t.Errorf("cell %s failed: err=%v div=%v", res.Key(), res.Err, res.Divergence)
		}
		follows += res.ChainFollows
	}
	if follows == 0 {
		t.Fatal("codegen campaign ran without a single chain follow; the storm is not stressing chaining")
	}
}
