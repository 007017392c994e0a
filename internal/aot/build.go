// Package aot compiles the specialized simulator source the core emitter
// produces for one (spec, buildset) pair into a standalone runner binary,
// executes programs through it over a length-prefixed pipe protocol, and —
// the heart of the package — differentially verifies the binary against the
// closure interpreter at retire granularity. It closes the paper's §IV
// loop: the same single specification drives both the in-process
// interpreter and the generated ahead-of-time simulator.
package aot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/obs"
)

// abiVersion names the runner protocol + harness contract. It participates
// in the cache key so a protocol change can never reuse a stale binary.
// v2: superblock drivers, batched record frames, plugin exports.
// v3: the final frame drops the fault kind and the execution profile.
const abiVersion = "aot-v3"

// ErrNoToolchain reports that the go toolchain needed to build runner
// binaries is not on PATH. Callers (tests, sweeps) skip AOT cells with this
// reason rather than failing.
var ErrNoToolchain = errors.New("aot: go toolchain not available on PATH")

// BuildResult describes one built (or cache-hit) runner binary.
type BuildResult struct {
	// BinPath is the runner binary, under the cache directory.
	BinPath string
	// Key is the full hex cache key (SHA-256 of generated source, harness,
	// go.mod, toolchain version, and ABI tag).
	Key string
	// Cached reports whether a verified cached binary was reused.
	Cached bool
}

// RunnerConvFor adapts an ISA ABI convention to the emitter's view.
func RunnerConvFor(c isa.Convention) core.RunnerConv {
	return core.RunnerConv{
		SyscallNum: c.SyscallNum,
		Args:       c.Args,
		Ret:        c.Ret,
		Stack:      c.Stack,
		HeapBase:   c.HeapBase,
		StackTop:   c.StackTop,
	}
}

const runnerGoMod = "module aotrunner\n\ngo 1.24\n"

// manifest records what a cached binary was built from, plus its own hash
// so torn or tampered artifacts are detected before reuse.
type manifest struct {
	BinarySHA256 string `json:"binary_sha256"`
	Key          string `json:"key"`
	GoVersion    string `json:"go_version"`
	GoOS         string `json:"go_os"`
	GoArch       string `json:"go_arch"`
	Spec         string `json:"spec"`
	Buildset     string `json:"buildset"`
}

// toolchain describes the go toolchain on PATH and the platform it targets.
// GOOS/GOARCH participate in the cache key and manifest so a cache directory
// shared across heterogeneous workers (NFS fleets) can never serve a
// wrong-platform binary: a foreign entry lands under a different key, and a
// manifest claiming the local platform for a foreign binary is rejected as
// corrupt.
type toolchain struct {
	Version string
	OS      string
	Arch    string
}

var (
	goProbeOnce sync.Once
	goProbeTC   toolchain
	goProbeErr  error
)

// probeToolchain asks the toolchain on PATH for its version and target
// platform, once per process. The toolchain that builds runners is the one
// on PATH, not necessarily the one that built this host binary, so the probe
// asks it directly rather than trusting runtime.Version/GOOS/GOARCH.
func probeToolchain() (toolchain, error) {
	goProbeOnce.Do(func() {
		gobin, err := exec.LookPath("go")
		if err != nil {
			goProbeErr = ErrNoToolchain
			return
		}
		out, err := exec.Command(gobin, "version").Output()
		if err != nil {
			goProbeErr = fmt.Errorf("aot: probing go version: %w", err)
			return
		}
		goProbeTC.Version = strings.TrimSpace(string(out))
		out, err = exec.Command(gobin, "env", "GOOS", "GOARCH").Output()
		if err != nil {
			goProbeErr = fmt.Errorf("aot: probing go platform: %w", err)
			return
		}
		fields := strings.Fields(string(out))
		if len(fields) != 2 {
			goProbeErr = fmt.Errorf("aot: unexpected go env output %q", out)
			return
		}
		goProbeTC.OS, goProbeTC.Arch = fields[0], fields[1]
	})
	return goProbeTC, goProbeErr
}

// inflight is the in-process singleflight state for one cache key: racing
// cells block on done and share the winner's result.
type inflight struct {
	done chan struct{}
	res  *BuildResult
	err  error
}

var (
	buildMu       sync.Mutex
	buildInflight = map[string]*inflight{}
)

// artifact is one kind of runner build output: the subprocess binary or the
// -buildmode=plugin .so (see plugin.go). Both kinds build from the same
// generated source into the same source-keyed cache entry, each beside its
// own manifest and under its own counters.
type artifact struct {
	file     string   // artifact file name in the cache entry
	manifest string   // manifest file name in the cache entry
	counters string   // counter prefix: <counters>.cache.{hit,miss,corrupt}, <counters>.build
	flags    []string // go build flags ahead of -o
	// uniqueModule gives the generated module a path unique to the cache
	// key instead of runnerGoMod's fixed one (see pluginArtifact).
	uniqueModule bool
	// unavailable, when set, wraps every go build failure: the artifact
	// kind is optional, and its callers test for the condition.
	unavailable error
}

var binaryArtifact = &artifact{file: "runner", manifest: "manifest.json", counters: "aot"}

// Build returns a runner binary for sim's (spec, buildset) pair, generating
// and compiling it on a cache miss. The cache key covers everything that
// determines the binary: the generated source, the static harness, go.mod,
// the toolchain version, and the protocol ABI tag. Cached binaries are
// verified against their manifest hash before reuse; corruption triggers a
// rebuild, never silent use. Concurrent calls for one key build exactly
// once per process.
func Build(sim *core.Sim, conv core.RunnerConv, cacheDir string, reg *obs.Registry) (*BuildResult, error) {
	return build(binaryArtifact, sim, conv, cacheDir, reg)
}

// build returns the artifact of kind a for sim's (spec, buildset) pair,
// building it on a cache miss, once per process for concurrent callers.
func build(a *artifact, sim *core.Sim, conv core.RunnerConv, cacheDir string, reg *obs.Registry) (*BuildResult, error) {
	tc, err := probeToolchain()
	if err != nil {
		return nil, err
	}
	src, err := sim.EmitRunner(conv)
	if err != nil {
		return nil, err
	}
	key := cacheKey(tc, src)
	entryDir := filepath.Join(cacheDir, key[:16])
	flKey := filepath.Join(entryDir, a.file)

	buildMu.Lock()
	if fl, ok := buildInflight[flKey]; ok {
		buildMu.Unlock()
		<-fl.done
		return fl.res, fl.err
	}
	fl := &inflight{done: make(chan struct{})}
	buildInflight[flKey] = fl
	buildMu.Unlock()

	fl.res, fl.err = buildLocked(a, sim, src, key, cacheDir, entryDir, tc, reg)
	buildMu.Lock()
	delete(buildInflight, flKey)
	buildMu.Unlock()
	close(fl.done)
	return fl.res, fl.err
}

// cacheKey covers everything that determines the binary: the ABI tag, the
// toolchain version and target platform, go.mod, the static harness, and
// the generated source.
func cacheKey(tc toolchain, src string) string {
	h := sha256.New()
	for _, part := range []string{abiVersion, tc.Version, tc.OS, tc.Arch, runnerGoMod, runnerHarness, src} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func buildLocked(a *artifact, sim *core.Sim, src, key, cacheDir, entryDir string, tc toolchain, reg *obs.Registry) (*BuildResult, error) {
	artPath := filepath.Join(entryDir, a.file)
	manPath := filepath.Join(entryDir, a.manifest)

	if ok, corrupt := verifyCached(artPath, manPath, key, tc); ok {
		count(reg, a.counters+".cache.hit")
		return &BuildResult{BinPath: artPath, Key: key, Cached: true}, nil
	} else if corrupt {
		count(reg, a.counters+".cache.corrupt")
	}
	count(reg, a.counters+".cache.miss")

	if err := os.MkdirAll(entryDir, 0o755); err != nil {
		return nil, fmt.Errorf("aot: creating cache entry: %w", err)
	}
	tmp, err := os.MkdirTemp(cacheDir, "build-*")
	if err != nil {
		return nil, fmt.Errorf("aot: creating build dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	goMod := runnerGoMod
	if a.uniqueModule {
		goMod = "module aotrunner_" + key[:16] + "\n\ngo 1.24\n"
	}
	files := map[string]string{
		"gen.go":     src,
		"harness.go": runnerHarness,
		"go.mod":     goMod,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(content), 0o644); err != nil {
			return nil, fmt.Errorf("aot: writing %s: %w", name, err)
		}
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, ErrNoToolchain
	}
	tmpArt := filepath.Join(tmp, a.file)
	cmd := exec.Command(gobin, append(append([]string{"build"}, a.flags...), "-o", tmpArt, ".")...)
	cmd.Dir = tmp
	if out, err := cmd.CombinedOutput(); err != nil {
		err = fmt.Errorf("aot: go build of generated %s (%s/%s) failed: %w\n%s",
			a.file, sim.Spec.Name, sim.BS.Name, err, out)
		if a.unavailable != nil {
			err = fmt.Errorf("%w: %w", a.unavailable, err)
		}
		return nil, err
	}
	count(reg, a.counters+".build")

	data, err := os.ReadFile(tmpArt)
	if err != nil {
		return nil, fmt.Errorf("aot: reading built %s: %w", a.file, err)
	}
	sum := sha256.Sum256(data)
	man := manifest{
		BinarySHA256: hex.EncodeToString(sum[:]),
		Key:          key,
		GoVersion:    tc.Version,
		GoOS:         tc.OS,
		GoArch:       tc.Arch,
		Spec:         sim.Spec.Name,
		Buildset:     sim.BS.Name,
	}
	if err := installArtifact(tmp, tmpArt, artPath, manPath, man); err != nil {
		return nil, err
	}
	return &BuildResult{BinPath: artPath, Key: key}, nil
}

// installArtifact moves a built artifact and its manifest into the cache
// entry. Binary first, manifest last: a crash in between leaves a
// manifest-less entry that the next build treats as a miss, never a torn
// hit.
func installArtifact(tmp, tmpBin, binPath, manPath string, man manifest) error {
	manData, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	tmpMan := filepath.Join(tmp, filepath.Base(manPath))
	if err := os.WriteFile(tmpMan, manData, 0o644); err != nil {
		return fmt.Errorf("aot: writing manifest: %w", err)
	}
	if err := os.Rename(tmpBin, binPath); err != nil {
		return fmt.Errorf("aot: installing artifact: %w", err)
	}
	if err := os.Rename(tmpMan, manPath); err != nil {
		return fmt.Errorf("aot: installing manifest: %w", err)
	}
	return nil
}

// verifyCached reports whether the cached binary at binPath is usable
// (manifest present, key and platform match, binary hash matches). corrupt
// is true when artifacts exist but fail verification — distinguishing damage
// from a plain cold miss.
func verifyCached(binPath, manPath, key string, tc toolchain) (ok, corrupt bool) {
	manData, err := os.ReadFile(manPath)
	if err != nil {
		// Missing manifest with a present binary is a torn install.
		if _, berr := os.Stat(binPath); berr == nil {
			return false, true
		}
		return false, false
	}
	var man manifest
	if json.Unmarshal(manData, &man) != nil || man.Key != key {
		return false, true
	}
	if man.GoOS != tc.OS || man.GoArch != tc.Arch {
		// A wrong-platform binary under our key can only be a spoofed or
		// damaged manifest; rebuild rather than ever exec-ing it.
		return false, true
	}
	binData, err := os.ReadFile(binPath)
	if err != nil {
		return false, true
	}
	sum := sha256.Sum256(binData)
	if hex.EncodeToString(sum[:]) != man.BinarySHA256 {
		return false, true
	}
	return true, false
}

// count bumps an obs counter when a registry is attached.
func count(reg *obs.Registry, name string) {
	if reg != nil {
		reg.Counter(name).Inc()
	}
}
