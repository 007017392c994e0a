package aot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/faultinj"
	"singlespec/internal/isa"
	"singlespec/internal/kernels"
	"singlespec/internal/mach"
	"singlespec/internal/obs"
)

// sharedCacheDir is one compile cache for the whole test binary, so the
// expensive go-build step runs once per (ISA, buildset) across tests.
var (
	cacheOnce      sync.Once
	sharedCacheDir string
)

func testCacheDir(t *testing.T) string {
	t.Helper()
	cacheOnce.Do(func() {
		dir, err := os.MkdirTemp("", "aot-cache-*")
		if err == nil {
			sharedCacheDir = dir
		}
	})
	if sharedCacheDir == "" {
		t.Fatal("creating shared cache dir failed")
	}
	return sharedCacheDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedCacheDir != "" {
		os.RemoveAll(sharedCacheDir)
	}
	os.Exit(code)
}

// requireToolchain skips with a reason when runner binaries cannot be
// built here: no toolchain, or no module source to build them in.
func requireToolchain(t *testing.T) {
	t.Helper()
	if _, err := probeToolchain(); errors.Is(err, ErrNoToolchain) {
		t.Skip("skipping: go toolchain not available on PATH")
	} else if err != nil {
		t.Fatal(err)
	}
	requireModuleSource(t)
}

func loadSim(t *testing.T, isaName, buildset string) (*isa.ISA, *core.Sim) {
	t.Helper()
	i, err := isa.Load(isaName)
	if err != nil {
		t.Fatalf("loading %s: %v", isaName, err)
	}
	sim, err := core.Synthesize(i.Spec, buildset, core.Options{})
	if err != nil {
		t.Fatalf("synthesizing %s/%s: %v", isaName, buildset, err)
	}
	return i, sim
}

func buildRunner(t *testing.T, i *isa.ISA, sim *core.Sim, reg *obs.Registry) *BuildResult {
	t.Helper()
	requireToolchain(t)
	res, err := Build(sim, RunnerConvFor(i.Conv), testCacheDir(t), reg)
	if err != nil {
		t.Fatalf("building runner for %s/%s: %v", sim.Spec.Name, sim.BS.Name, err)
	}
	return res
}

func kernelProgram(t *testing.T, i *isa.ISA, name string, n int) *asm.Program {
	t.Helper()
	k := kernels.ByName(name)
	if k == nil {
		t.Fatalf("no kernel %q", name)
	}
	prog, err := kernels.BuildProgram(i, k.Build(n))
	if err != nil {
		t.Fatalf("building %s for %s: %v", name, i.Name, err)
	}
	return prog
}

// diffFresh diffs prog against a freshly spawned runner whose result
// tamper, when non-nil, alters first.
func diffFresh(t *testing.T, sim *core.Sim, i *isa.ISA, prog *asm.Program, binPath string, tamper func(*RunResult)) *faultinj.Divergence {
	t.Helper()
	r, err := Spawn(binPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var c Client = r
	if tamper != nil {
		c = tamperClient{r, tamper}
	}
	d, err := DiffProgram(sim, i, prog, c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiffKernelAcrossModes is the package smoke test: one kernel through
// one buildset of each interface mode on each ISA, interpreter vs. runner,
// zero divergences.
func TestDiffKernelAcrossModes(t *testing.T) {
	for _, isaName := range isa.Names() {
		for _, buildset := range []string{"one_decode", "block_all", "step_all"} {
			t.Run(isaName+"/"+buildset, func(t *testing.T) {
				i, sim := loadSim(t, isaName, buildset)
				b := buildRunner(t, i, sim, nil)
				prog := kernelProgram(t, i, "fib_iter", 12)
				if d := diffFresh(t, sim, i, prog, b.BinPath, nil); d != nil {
					t.Fatalf("divergence: %v", d)
				}
			})
		}
	}
}

// tamperClient is a live runner session whose every RunResult is altered
// before the caller sees it.
type tamperClient struct {
	Client
	tamper func(*RunResult)
}

func (c tamperClient) Run(maxInstr uint64, wantRecs bool, resultAddr uint64) (*RunResult, error) {
	res, err := c.Client.Run(maxInstr, wantRecs, resultAddr)
	if err == nil {
		c.tamper(res)
	}
	return res, err
}

// TestDiffProgramReportsTampering shows that DiffProgram fires: a real
// runner whose result is altered in exactly one compared item yields a
// divergence naming that item, and the unaltered runner yields none. On
// block_min, which publishes no records, the final-state items are the
// whole evidence.
func TestDiffProgramReportsTampering(t *testing.T) {
	tampers := []struct {
		name    string
		records bool   // needs a record-publishing buildset
		want    string // names the item in Divergence.Detail; "" = no divergence
		tamper  func(*RunResult)
	}{
		{"untampered", false, "", func(*RunResult) {}},
		{"record value", true, "visible field", func(r *RunResult) { r.Records[len(r.Records)/2].Vals[0] ^= 1 }},
		{"last record dropped", true, "record stream length", func(r *RunResult) { r.Records = r.Records[:len(r.Records)-1] }},
		{"register", false, "register", func(r *RunResult) { r.Spaces[0][1] ^= 1 }},
		{"final pc", false, "final pc", func(r *RunResult) { r.PC += 4 }},
		{"instret", false, "instret", func(r *RunResult) { r.Instret++ }},
		{"exit code", false, "exit status", func(r *RunResult) { r.ExitCode++ }},
		{"final fault", false, "final fault", func(r *RunResult) { r.Fault = mach.FaultIllegal }},
		{"stdout", false, "stdout", func(r *RunResult) { r.Stdout = append(r.Stdout, '!') }},
		{"result word", false, "result word", func(r *RunResult) { r.ResultWord ^= 1 }},
	}
	for _, bs := range []struct {
		name    string
		records bool
	}{{"one_decode", true}, {"block_min", false}} {
		i, sim := loadSim(t, "alpha64", bs.name)
		b := buildRunner(t, i, sim, nil)
		prog := kernelProgram(t, i, "fib_iter", 12)
		if prog.Symbols["result"] == 0 {
			t.Fatal("fib_iter has no result word")
		}
		for _, tc := range tampers {
			if tc.records && !bs.records {
				continue
			}
			t.Run(bs.name+"/"+tc.name, func(t *testing.T) {
				d := diffFresh(t, sim, i, prog, b.BinPath, tc.tamper)
				switch {
				case tc.want == "" && d != nil:
					t.Fatalf("untampered runner diverged: %v", d)
				case tc.want != "" && d == nil:
					t.Fatal("tampered run not reported")
				case tc.want != "" && !strings.Contains(d.Detail, tc.want):
					t.Fatalf("divergence does not name %q: %v", tc.want, d)
				}
			})
		}
	}
}

// TestRunnerDeterministicAcrossRuns checks that runs of one program in one
// runner process (the warmup + measured schedule the bench path uses)
// report identical final state, and that every run after the first
// publishes the same record stream. The first run's stream differs: field
// storage persists across runs, so a field an instruction does not write
// reads zero in the first run and the previous run's last value after it.
// A run's records are valid only until the next Run, so each run's stream
// is copied before the next one starts.
func TestRunnerDeterministicAcrossRuns(t *testing.T) {
	i, sim := loadSim(t, "alpha64", "one_decode")
	b := buildRunner(t, i, sim, nil)
	prog := kernelProgram(t, i, "crc32", 64)
	r, err := Spawn(b.BinPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init(prog, nil); err != nil {
		t.Fatal(err)
	}
	resultAddr := prog.Symbols["result"]
	var final0 FinalState
	var streams [][]core.Record
	for run := 0; run < 3; run++ {
		res, err := r.Run(1<<22, true, resultAddr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted {
			t.Fatalf("run %d did not halt (fault %d at pc %#x)", run, res.Fault, res.PC)
		}
		res.ElapsedNs = 0 // wall clock
		if run == 0 {
			final0 = res.FinalState
		} else if !reflect.DeepEqual(res.FinalState, final0) {
			t.Fatalf("run %d final state %+v, run 0 %+v", run, res.FinalState, final0)
		}
		streams = append(streams, copyRecords(res.Records))
	}
	if !reflect.DeepEqual(streams[2], streams[1]) {
		t.Fatalf("runs 1 and 2 published different record streams (%d and %d records)",
			len(streams[1]), len(streams[2]))
	}
}

// copyRecords deep-copies records out of a client's reused storage.
func copyRecords(recs []core.Record) []core.Record {
	out := make([]core.Record, len(recs))
	for k, rec := range recs {
		rec.Vals = slices.Clone(rec.Vals)
		out[k] = rec
	}
	return out
}

// TestRunRecordsSteadyStateAllocs: once a runner has delivered one recorded
// run, further recorded runs of the same program allocate a small fixed
// number of times, whatever the run's length, on the one-record-per-
// instruction path (one_all) and the seven-records-per-instruction Step
// path (step_all_spec). So does the first recorded run of a runner spawned
// after that one closes, since Close hands the record storage on. The
// runners run under a hard deadline, as bench's do.
func TestRunRecordsSteadyStateAllocs(t *testing.T) {
	// What a steady-state Run allocates: the run payload and its frame
	// write, the watchdog timer, the RunResult and the final state, with
	// one slice per register space, and stdout; 9 allocations on alpha64
	// today. One allocation per record frame would add 10 on the smaller
	// kernel.
	const maxAllocs = 12
	for _, buildset := range []string{"one_all", "step_all_spec"} {
		t.Run(buildset, func(t *testing.T) {
			i, sim := loadSim(t, "alpha64", buildset)
			b := buildRunner(t, i, sim, nil)
			var nRecs []int
			for _, n := range []int{64, 512} {
				prog := kernelProgram(t, i, "crc32", n)
				var r *Runner
				var res *RunResult
				run := func() {
					var err error
					if res, err = r.Run(1<<24, true, prog.Symbols["result"]); err != nil {
						t.Fatal(err)
					}
					if !res.Halted {
						t.Fatalf("crc32(%d) did not halt (fault %d at pc %#x)", n, res.Fault, res.PC)
					}
				}
				for _, spawn := range []string{"first", "second"} {
					var err error
					if r, err = SpawnWithDeadline(b.BinPath, nil, time.Minute); err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					if err := r.Init(prog, nil); err != nil {
						t.Fatal(err)
					}
					var allocs float64
					if spawn == "first" {
						run()
						allocs = testing.AllocsPerRun(5, run)
						nRecs = append(nRecs, len(res.Records))
					} else {
						allocs = float64(allocsOf(run))
					}
					if allocs > maxAllocs {
						t.Errorf("crc32(%d), %s runner: a recorded run of %d records allocated %v times, want at most %d",
							n, spawn, len(res.Records), allocs, maxAllocs)
					}
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
					if r.store.recs != nil || r.store.slabs != nil || r.frame != nil {
						t.Error("Close kept the runner's record storage")
					}
				}
			}
			if nRecs[1] < 4*nRecs[0] {
				t.Fatalf("record counts %v differ by less than 4x", nRecs)
			}
		})
	}
}

// allocsOf counts the heap allocations of one call of f, unlike
// testing.AllocsPerRun, which calls f once before it counts.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// standInPlugin is a plugin handle whose every run replies with *n records
// of two values from recordsFrame, so its sessions need no runner.
func standInPlugin(n *int, salt uint8) *PluginHandle {
	return &PluginHandle{hello: Hello{VisNames: []string{"a", "b"}, NumEps: 1},
		fns: pluginExports{run: func([]byte) ([][]byte, string) {
			return [][]byte{recordsFrame(*n, 2, salt), validFinal()}, ""
		}}}
}

// TestSpareStoreHandedOn: a closed client's record storage goes to the
// next client to open, and of two closed clients' stores the larger one is
// kept. The clients are sessions of a stand-in plugin.
func TestSpareStoreHandedOn(t *testing.T) {
	n := 0
	h := standInPlugin(&n, 1)
	takeStore() // start from an empty spare
	runN := func(s *PluginSession, recs int) *RunResult {
		t.Helper()
		n = recs
		res, err := s.Run(1, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != recs {
			t.Fatalf("%d records, want %d", len(res.Records), recs)
		}
		return res
	}
	s := h.Session()
	first := &runN(s, 1000).Records[0]
	s.Close()
	s = h.Session()
	if got := &runN(s, 10).Records[0]; got != first {
		t.Error("the next session decoded into new storage, not the closed session's")
	}
	s.Close()
	giveStore(recordStore{recs: make([]core.Record, 10)})
	s = h.Session()
	if got := &runN(s, 1000).Records[0]; got != first {
		t.Error("the spare kept the smaller store")
	}
	s.Close()
}

// TestSpareStoreConcurrentClients: clients that open, run and close on
// several goroutines at once never share a store, so each run's records
// are its own.
func TestSpareStoreConcurrentClients(t *testing.T) {
	const clients, runs = 4, 50
	var wg sync.WaitGroup
	for c := range clients {
		salt := uint8(c + 1)
		n := 100 * (c + 1)
		h := standInPlugin(&n, salt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range runs {
				s := h.Session()
				res, err := s.Run(1, true, 0)
				if err != nil {
					t.Error(err)
					s.Close()
					return
				}
				for k, rec := range res.Records {
					if rec.PC != uint64(k)*4+uint64(salt) || rec.Vals[1] != recordVal(k, 1, salt) {
						t.Errorf("client %d: record %d reads %+v", c, k, rec)
						s.Close()
						return
					}
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
}

// TestBuildCacheReuse: an identical second build must reuse the cached
// binary and say so through the obs counters.
func TestBuildCacheReuse(t *testing.T) {
	requireToolchain(t)
	i, sim := loadSim(t, "alpha64", "one_min")
	dir := t.TempDir()
	reg := obs.NewRegistry()
	first, err := Build(sim, RunnerConvFor(i.Conv), dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first build reported a cache hit in an empty cache")
	}
	second, err := Build(sim, RunnerConvFor(i.Conv), dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.BinPath != first.BinPath {
		t.Fatalf("second build not served from cache: %+v", second)
	}
	if got := reg.Counter("aot.cache.hit").Load(); got != 1 {
		t.Fatalf("aot.cache.hit = %d, want 1", got)
	}
	if got := reg.Counter("aot.build").Load(); got != 1 {
		t.Fatalf("aot.build = %d, want 1", got)
	}
}

// TestBuildCacheCorruption: a flipped byte in the cached binary must be
// detected by the manifest hash and trigger a rebuild, never silent reuse.
func TestBuildCacheCorruption(t *testing.T) {
	requireToolchain(t)
	i, sim := loadSim(t, "alpha64", "one_min")
	dir := t.TempDir()
	reg := obs.NewRegistry()
	first, err := Build(sim, RunnerConvFor(i.Conv), dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(first.BinPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first.BinPath, data, 0o755); err != nil {
		t.Fatal(err)
	}
	second, err := Build(sim, RunnerConvFor(i.Conv), dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("corrupted binary was served from cache")
	}
	if got := reg.Counter("aot.cache.corrupt").Load(); got != 1 {
		t.Fatalf("aot.cache.corrupt = %d, want 1", got)
	}
	if got := reg.Counter("aot.build").Load(); got != 2 {
		t.Fatalf("aot.build = %d, want 2", got)
	}
	// The rebuilt artifact must verify again.
	third, err := Build(sim, RunnerConvFor(i.Conv), dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("rebuilt binary did not verify on the next lookup")
	}
}

// TestBuildCacheConcurrent: racing cells on one cache entry build exactly
// once (run under -race in CI).
func TestBuildCacheConcurrent(t *testing.T) {
	requireToolchain(t)
	i, sim := loadSim(t, "alpha64", "one_min")
	dir := t.TempDir()
	reg := obs.NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	results := make([]*BuildResult, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = Build(sim, RunnerConvFor(i.Conv), dir, reg)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w].BinPath != results[0].BinPath {
			t.Fatalf("worker %d got different binary path", w)
		}
	}
	if got := reg.Counter("aot.build").Load(); got != 1 {
		t.Fatalf("aot.build = %d, want exactly 1 for %d racing builds", got, workers)
	}
}

// ---- protocol decoder hardening ----

func validHello() []byte {
	p := []byte{'H'}
	p = append(p, 7, 0)
	p = append(p, "alpha64"...)
	p = append(p, 7, 0)
	p = append(p, "one_all"...)
	p = binary.LittleEndian.AppendUint32(p, 2)
	p = append(p, 4, 0)
	p = append(p, "alua"...)
	p = append(p, 5, 0)
	p = append(p, "alub\x5f"...)
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = append(p, 0, 1)
	return p
}

func validRecords(nVis int) []byte {
	p := []byte{'R'}
	p = binary.LittleEndian.AppendUint32(p, 2)
	for rec := 0; rec < 2; rec++ {
		var hdr [32]byte
		binary.LittleEndian.PutUint64(hdr[0:], 0x10000+uint64(rec)*4)
		binary.LittleEndian.PutUint32(hdr[24:], 0xdeadbeef)
		p = append(p, hdr[:]...)
		for v := 0; v < nVis; v++ {
			p = binary.LittleEndian.AppendUint64(p, uint64(v))
		}
	}
	return p
}

func validFinal() []byte {
	p := []byte{'F', 1}
	p = binary.LittleEndian.AppendUint64(p, 42)         // exit code
	p = append(p, 3)                                    // fault
	p = binary.LittleEndian.AppendUint64(p, 0x10040)    // pc
	p = binary.LittleEndian.AppendUint64(p, 1234)       // instret
	p = binary.LittleEndian.AppendUint64(p, 99999)      // elapsed
	p = binary.LittleEndian.AppendUint32(p, 0xabad1dea) // result
	p = binary.LittleEndian.AppendUint32(p, 1)          // spaces
	p = binary.LittleEndian.AppendUint32(p, 2)          // count
	p = binary.LittleEndian.AppendUint64(p, 7)
	p = binary.LittleEndian.AppendUint64(p, 8)
	p = binary.LittleEndian.AppendUint32(p, 3) // stdout
	p = append(p, "ok\n"...)
	return p
}

// TestDecodeValidFrames pins the golden paths the fuzzer mutates from.
func TestDecodeValidFrames(t *testing.T) {
	h, err := decodeHelloFrame(validHello())
	if err != nil {
		t.Fatal(err)
	}
	if h.Spec != "alpha64" || h.Buildset != "one_all" || len(h.VisNames) != 2 || !h.EmitRecs {
		t.Fatalf("hello decoded wrong: %+v", h)
	}
	recs, _, err := decodeRecordsFrame(validRecords(2), 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].PC != 0x10004 || recs[0].InstrBits != 0xdeadbeef {
		t.Fatalf("records decoded wrong: %+v", recs)
	}
	f, err := decodeFinalFrame(validFinal())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Halted || f.ExitCode != 42 || f.Fault != 3 || f.PC != 0x10040 || f.Instret != 1234 ||
		f.ResultWord != 0xabad1dea || len(f.Spaces) != 1 || f.Spaces[0][1] != 8 || string(f.Stdout) != "ok\n" {
		t.Fatalf("final decoded wrong: %+v", f)
	}
}

// TestRunFrames pins the reply sequence both transports share, fed from an
// in-memory frame source (the plugin transport's runReply): record batches
// then the final frame yield every record and the final state, and any
// other sequence is a typed *ProtocolError.
func TestRunFrames(t *testing.T) {
	res, err := runReply([][]byte{validRecords(2), validRecords(2), validFinal()}, 2, &recordStore{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 || res.Records[3].PC != 0x10004 || res.Records[3].Vals[1] != 1 {
		t.Fatalf("records delivered wrong: %+v", res.Records)
	}
	if !res.Halted || res.ExitCode != 42 || res.Instret != 1234 {
		t.Fatalf("final state delivered wrong: %+v", res.FinalState)
	}
	for name, frames := range map[string][][]byte{
		"no final frame":     {validRecords(2)},
		"empty reply":        nil,
		"empty frame":        {validRecords(2), {}, validFinal()},
		"unknown frame type": {{'X', 0}, validFinal()},
		"frame after final":  {validRecords(2), validFinal(), validFinal()},
	} {
		if _, err := runReply(frames, 2, &recordStore{}); err == nil {
			t.Errorf("%s: accepted", name)
		} else if pe := (*ProtocolError)(nil); !errors.As(err, &pe) {
			t.Errorf("%s: untyped error %T: %v", name, err, err)
		}
	}
}

// FuzzRunnerProtocol feeds corrupted, truncated, and oversized frames to
// all three protocol decoders. Malformed input must produce a typed
// *ProtocolError — never a panic, hang, or large-allocation blowup.
func FuzzRunnerProtocol(f *testing.F) {
	f.Add(validHello(), 2)
	f.Add(validRecords(2), 2)
	f.Add(validRecords(0), 0)
	f.Add(validFinal(), 1)
	f.Add([]byte{'H'}, 0)
	f.Add([]byte{'R', 0xff, 0xff, 0xff, 0xff}, 3)
	f.Add([]byte{'F', 1, 2, 3}, 0)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, nVis int) {
		if _, err := decodeHelloFrame(data); err != nil {
			requireProtocolError(t, err)
		}
		if _, _, err := decodeRecordsFrame(data, nVis%8, nil, nil); err != nil {
			requireProtocolError(t, err)
		}
		if _, err := decodeFinalFrame(data); err != nil {
			requireProtocolError(t, err)
		}
	})
}

func requireProtocolError(t *testing.T, err error) {
	t.Helper()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("decoder returned untyped error %T: %v", err, err)
	}
}

// recordsFrame builds a well-formed batched 'R' frame of nRecs records with
// nVis values each, whose every header field and value depends on the
// record's index and on salt.
func recordsFrame(nRecs, nVis int, salt uint8) []byte {
	frame := []byte{'R'}
	frame = binary.LittleEndian.AppendUint32(frame, uint32(nRecs))
	for i := 0; i < nRecs; i++ {
		var hdr [32]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(i)*4+uint64(salt))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(i)*4)
		binary.LittleEndian.PutUint64(hdr[16:], uint64(i)*4+4)
		binary.LittleEndian.PutUint32(hdr[24:], uint32(i)^uint32(salt)<<8)
		binary.LittleEndian.PutUint16(hdr[28:], uint16(i))
		hdr[30] = salt % 4
		hdr[31] = byte(i+int(salt)) & 1
		frame = append(frame, hdr[:]...)
		for v := 0; v < nVis; v++ {
			frame = binary.LittleEndian.AppendUint64(frame, recordVal(i, v, salt))
		}
	}
	return frame
}

// recordVal is the value recordsFrame gives record i's value v.
func recordVal(i, v int, salt uint8) uint64 {
	return uint64(salt)<<32 + uint64(i)*8 + uint64(v)
}

// requireSameRecords fails unless got and want hold equal records.
func requireSameRecords(t *testing.T, got, want []core.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("record %d: %+v, want %+v", k, got[k], want[k])
		}
	}
}

// TestDecodeRecordsReusesStorage: a second run's decode of the same frame
// into one store allocates nothing and yields the records a fresh decode
// does.
func TestDecodeRecordsReusesStorage(t *testing.T) {
	const nVis = 3
	frame := recordsFrame(1000, nVis, 7)
	fresh, _, err := decodeRecordsFrame(frame, nVis, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st recordStore
	run := func() {
		st.reset()
		if err := st.decode(frame, nVis); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("decoding into warm storage allocated %v times per run, want 0", allocs)
	}
	requireSameRecords(t, st.recs, fresh)
}

// BenchmarkDecodeRecordsFrame decodes one runner-sized (~64 KiB) 'R' frame
// of alpha64 one_all records into warm storage, as a client does from its
// second run on.
func BenchmarkDecodeRecordsFrame(b *testing.B) {
	i, err := isa.Load("alpha64")
	if err != nil {
		b.Fatal(err)
	}
	sim, err := core.Synthesize(i.Spec, "one_all", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nVis := sim.Layout.NumSlots()
	frame := recordsFrame((1<<16)/(32+8*nVis)+1, nVis, 1)
	var st recordStore
	st.reset()
	if err := st.decode(frame, nVis); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		st.reset()
		if err := st.decode(frame, nVis); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzBatchedRecordFrames targets the batched 'R' frame path specifically:
// the runner coalesces up to pipe-buffer-sized runs of records into one
// frame with a single count prefix, so the decoder must round-trip
// arbitrary batch shapes exactly, also into storage a larger earlier run
// left behind, with full-capacity per-record value slices, and reject
// truncations and count lies with a typed *ProtocolError — never a panic or
// a count-driven over-allocation.
func FuzzBatchedRecordFrames(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0))
	f.Add(uint16(1), uint8(3), uint8(1))
	f.Add(uint16(257), uint8(1), uint8(7))
	f.Add(uint16(1000), uint8(4), uint8(31))
	f.Add(uint16(9), uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, nRecs uint16, visRaw, salt uint8) {
		nVis := int(visRaw % 8)
		frame := recordsFrame(int(nRecs), nVis, salt)

		recs, _, err := decodeRecordsFrame(frame, nVis, nil, nil)
		if err != nil {
			t.Fatalf("well-formed batch rejected: %v", err)
		}
		if len(recs) != int(nRecs) {
			t.Fatalf("decoded %d records, want %d", len(recs), nRecs)
		}
		for i, r := range recs {
			if r.PC != uint64(i)*4+uint64(salt) || r.InstrID != uint16(i) {
				t.Fatalf("record %d decoded wrong: %+v", i, r)
			}
			for v := 0; v < nVis; v++ {
				if r.Vals[v] != recordVal(i, v, salt) {
					t.Fatalf("record %d value %d decoded wrong: %d", i, v, r.Vals[v])
				}
			}
		}

		// Reused storage: a store whose last run decoded two larger frames
		// decodes a run of this frame and a differently salted twin into the
		// same records two fresh decodes give. The twin goes into the run's
		// second slab, so it must not overwrite the first frame's values.
		twin := recordsFrame(int(nRecs), nVis, salt+1)
		twinRecs, _, err := decodeRecordsFrame(twin, nVis, nil, nil)
		if err != nil {
			t.Fatalf("well-formed batch rejected: %v", err)
		}
		var st recordStore
		big := recordsFrame(int(nRecs)+3, nVis, salt+2)
		for _, run := range [][][]byte{{big, big}, {frame, twin}} {
			st.reset()
			for _, p := range run {
				if err := st.decode(p, nVis); err != nil {
					t.Fatalf("decode into a store failed: %v", err)
				}
			}
		}
		requireSameRecords(t, st.recs, append(recs, twinRecs...))
		for i, r := range st.recs {
			if cap(r.Vals) != nVis {
				t.Fatalf("record %d values have capacity %d, want %d", i, cap(r.Vals), nVis)
			}
		}
		if nVis > 0 && nRecs >= 2 {
			st.recs[0].Vals = append(st.recs[0].Vals, 0xdead)
			if st.recs[1].Vals[0] != recordVal(1, 0, salt) {
				t.Fatal("growing one record's values clobbered its neighbor")
			}
		}

		// Every strict truncation must fail typed, fresh or into warm
		// storage: the count prefix then disagrees with the payload length.
		bad := func(what string, p []byte) {
			t.Helper()
			for _, into := range []*recordStore{{}, &st} {
				if err := into.decode(p, nVis); err == nil {
					t.Fatalf("%s accepted", what)
				} else {
					requireProtocolError(t, err)
				}
			}
		}
		for _, cut := range []int{0, 1, 3, len(frame) / 2, len(frame) - 1} {
			if cut < len(frame) {
				bad(fmt.Sprintf("truncation to %d of %d bytes", cut, len(frame)), frame[:cut])
			}
		}
		// So must trailing garbage and a count that lies upward.
		bad("trailing garbage", append(frame[:len(frame):len(frame)], salt))
		lying := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(lying[1:], uint32(nRecs)+1)
		bad("count lying past the payload", lying)
	})
}

// TestCacheDirLayout documents the on-disk contract: one directory per
// source hash prefix holding the runner binary and its manifest.
func TestCacheDirLayout(t *testing.T) {
	requireToolchain(t)
	i, sim := loadSim(t, "alpha64", "one_min")
	dir := t.TempDir()
	res, err := Build(sim, RunnerConvFor(i.Conv), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBin := filepath.Join(dir, res.Key[:16], "runner")
	if res.BinPath != wantBin {
		t.Fatalf("binary at %s, want %s", res.BinPath, wantBin)
	}
	if _, err := os.Stat(filepath.Join(dir, res.Key[:16], "manifest.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
}
