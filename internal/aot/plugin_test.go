package aot

import (
	"errors"
	"reflect"
	"testing"

	"singlespec/internal/obs"
)

// requirePlugin runs a plugin build, skipping with the typed reason when
// this host cannot build Go plugins. Either way it asserts the
// unavailability contract: failures must wrap ErrNoPlugin.
func requirePlugin(t *testing.T, build func() (*BuildResult, error)) *BuildResult {
	t.Helper()
	res, err := build()
	if err != nil {
		if errors.Is(err, ErrNoPlugin) {
			t.Skipf("skipping: %v", err)
		}
		t.Fatal(err)
	}
	return res
}

// TestPluginTransportParity runs one kernel through the subprocess runner
// and the in-process plugin and requires identical observable results:
// final state and record stream.
func TestPluginTransportParity(t *testing.T) {
	for _, buildset := range []string{"block_min", "step_all"} {
		t.Run(buildset, func(t *testing.T) {
			i, sim := loadSim(t, "alpha64", buildset)
			requireToolchain(t)
			dir := testCacheDir(t)
			conv := RunnerConvFor(i.Conv)
			prog := kernelProgram(t, i, "fib_iter", 12)
			resultAddr := prog.Symbols["result"]

			pb := requirePlugin(t, func() (*BuildResult, error) {
				return BuildPlugin(sim, conv, dir, nil)
			})
			ph, err := LoadPlugin(pb.BinPath)
			if err != nil {
				if errors.Is(err, ErrNoPlugin) {
					t.Skipf("skipping: %v", err)
				}
				t.Fatal(err)
			}

			bin, err := Build(sim, conv, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := Spawn(bin.BinPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			ps := ph.Session()
			defer ps.Close()

			if !reflect.DeepEqual(ps.Hello(), sub.Hello()) {
				t.Fatalf("hello mismatch: plugin %+v, subprocess %+v", ps.Hello(), sub.Hello())
			}
			var results []*RunResult
			for _, c := range []Client{ps, sub} {
				if err := c.Init(prog, nil); err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(1<<20, true, resultAddr)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			pr, sr := results[0], results[1]
			// ElapsedNs is wall clock and legitimately differs.
			pr.ElapsedNs, sr.ElapsedNs = 0, 0
			if !reflect.DeepEqual(pr.FinalState, sr.FinalState) {
				t.Fatalf("final state diverges:\nplugin:     %+v\nsubprocess: %+v", pr.FinalState, sr.FinalState)
			}
			if len(pr.Records) != len(sr.Records) {
				t.Fatalf("record count diverges: plugin %d, subprocess %d", len(pr.Records), len(sr.Records))
			}
			for ri := range pr.Records {
				if !reflect.DeepEqual(pr.Records[ri], sr.Records[ri]) {
					t.Fatalf("record %d diverges:\nplugin:     %+v\nsubprocess: %+v", ri, pr.Records[ri], sr.Records[ri])
				}
			}
		})
	}
}

// TestPluginSessionReuse checks the hard-reset contract: successive
// sessions on one loaded plugin (which shares package-global machine state)
// reproduce identical records and final state from Init onward.
func TestPluginSessionReuse(t *testing.T) {
	i, sim := loadSim(t, "ppc32", "one_decode")
	requireToolchain(t)
	dir := testCacheDir(t)
	conv := RunnerConvFor(i.Conv)
	pb := requirePlugin(t, func() (*BuildResult, error) {
		return BuildPlugin(sim, conv, dir, nil)
	})
	ph, err := LoadPlugin(pb.BinPath)
	if err != nil {
		if errors.Is(err, ErrNoPlugin) {
			t.Skipf("skipping: %v", err)
		}
		t.Fatal(err)
	}
	prog := kernelProgram(t, i, "crc32", 64)
	resultAddr := prog.Symbols["result"]
	var prev *RunResult
	for session := 0; session < 3; session++ {
		s := ph.Session()
		if err := s.Init(prog, nil); err != nil {
			s.Close()
			t.Fatal(err)
		}
		res, err := s.Run(1<<22, true, resultAddr)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted {
			t.Fatalf("session %d did not halt (fault %d at pc %#x)", session, res.Fault, res.PC)
		}
		res.ElapsedNs = 0 // wall clock
		if prev != nil && !reflect.DeepEqual(res, prev) {
			t.Fatalf("session %d diverged from session %d", session, session-1)
		}
		prev = res
	}
}

// TestLoadPluginMissingTyped pins the fallback contract: a load failure is
// always identifiable as ErrNoPlugin through wrapping, never a bare error
// the caller would have to string-match.
func TestLoadPluginMissingTyped(t *testing.T) {
	_, err := LoadPlugin(t.TempDir() + "/no-such-runner.so")
	if err == nil {
		t.Fatal("LoadPlugin of a missing artifact succeeded")
	}
	if !errors.Is(err, ErrNoPlugin) {
		t.Fatalf("load failure is not ErrNoPlugin: %v", err)
	}
}

// TestPluginBuildCacheReuse: the plugin artifact caches like the subprocess
// binary, under its own counters and manifest.
func TestPluginBuildCacheReuse(t *testing.T) {
	i, sim := loadSim(t, "alpha64", "one_min")
	requireToolchain(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	conv := RunnerConvFor(i.Conv)
	first, err := BuildPlugin(sim, conv, dir, reg)
	if err != nil {
		if errors.Is(err, ErrNoPlugin) {
			t.Skipf("skipping: %v", err)
		}
		t.Fatal(err)
	}
	second, err := BuildPlugin(sim, conv, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.BinPath != first.BinPath {
		t.Fatalf("second plugin build not served from cache: %+v", second)
	}
	if got := reg.Counter("aot.plugin.cache.hit").Load(); got != 1 {
		t.Fatalf("aot.plugin.cache.hit = %d, want 1", got)
	}
	if got := reg.Counter("aot.plugin.build").Load(); got != 1 {
		t.Fatalf("aot.plugin.build = %d, want 1", got)
	}
}

// TestBuildPluginNoCgo pins the unavailability contract of the plugin
// build: with cgo disabled, BuildPlugin into a fresh cache fails with an
// error that is ErrNoPlugin through wrapping.
func TestBuildPluginNoCgo(t *testing.T) {
	i, sim := loadSim(t, "alpha64", "one_min")
	requireToolchain(t)
	t.Setenv("CGO_ENABLED", "0")
	res, err := BuildPlugin(sim, RunnerConvFor(i.Conv), t.TempDir(), nil)
	if err == nil {
		t.Fatalf("plugin built with cgo disabled: %+v", res)
	}
	if !errors.Is(err, ErrNoPlugin) {
		t.Fatalf("no-cgo build failure is not ErrNoPlugin: %v", err)
	}
}
