// Package aot compiles the specialized simulator source the core emitter
// produces for one (spec, buildset) pair into a runner binary, built as a
// package of this module on the interpreter's machine substrate (mach,
// sysemu, lis), executes programs through it over a length-prefixed pipe
// protocol, and —
// the heart of the package — differentially verifies the binary against the
// closure interpreter at retire granularity. It closes the paper's §IV
// loop: the same single specification drives both the in-process
// interpreter and the generated ahead-of-time simulator.
package aot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
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

// ErrNoSource reports that the source of the singlespec module, inside
// which runners are built, is not on disk where this package was compiled
// from: a -trimpath binary, say, or one moved away from its checkout.
// Callers skip AOT cells with this reason, as they do for ErrNoToolchain.
var ErrNoSource = errors.New("aot: singlespec module source not found")

// BuildResult describes one built (or cache-hit) runner binary.
type BuildResult struct {
	// BinPath is the runner binary, under the cache directory.
	BinPath string
	// Key is the full hex cache key (SHA-256 of the generated source, the
	// harness, the source of the module packages they link, the toolchain
	// and the ABI tag).
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

// manifest records what a cached binary was built from, plus its own hash
// so torn or tampered artifacts are detected before reuse.
type manifest struct {
	BinarySHA256 string `json:"binary_sha256"`
	Key          string `json:"key"`
	GoVersion    string `json:"go_version"`
	Spec         string `json:"spec"`
	Buildset     string `json:"buildset"`
}

// toolchain describes the go toolchain on PATH and the platform it targets.
// GOOS/GOARCH participate in the cache key because they determine the
// binary: a toolchain targeting another platform builds under another key.
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

// modulePath is the module runners build in. Their harness imports its
// internal packages, which only packages of the module may do.
const modulePath = "singlespec"

// runnerImports are the module packages the harness and the generated
// source import (TestRunnerImportsListed keeps the list whole).
var runnerImports = []string{
	modulePath + "/internal/isa",
	modulePath + "/internal/lis",
	modulePath + "/internal/mach",
	modulePath + "/internal/sysemu",
}

// moduleSrc is the module source a runner builds against.
type moduleSrc struct {
	root string   // module root directory
	deps string   // digest of the source of the module packages runners link
	pkgs []string // those packages' import paths
}

var (
	modOnce sync.Once
	modSrc  moduleSrc
	modErr  error
)

// moduleSource finds the module root from this file's compiled path and
// digests the packages runners link, once per process. The root is
// derived, never configured: a binary built without its source paths
// (-trimpath) gets ErrNoSource, and so does one whose root holds no go.mod
// declaring this module.
func moduleSource(gobin string) (moduleSrc, error) {
	modOnce.Do(func() {
		_, file, _, ok := runtime.Caller(0)
		if !ok || !filepath.IsAbs(file) {
			modErr = fmt.Errorf("%w: this binary records no source paths", ErrNoSource)
			return
		}
		modSrc.root = filepath.Dir(filepath.Dir(filepath.Dir(file))) // root/internal/aot/build.go
		modSrc.deps, modSrc.pkgs, modErr = depsDigest(gobin, modSrc.root)
		if modErr != nil {
			modErr = fmt.Errorf("%w: %v", ErrNoSource, modErr)
		}
	})
	return modSrc, modErr
}

// depsDigest hashes the source of every module package a runner links,
// runnerImports and their dependencies as the go command resolves them in
// the module at root, which must be this module: each package's Go files
// and the files it embeds (isa's .lis descriptions).
func depsDigest(gobin, root string) (string, []string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(gobin, append([]string{"list", "-deps",
		"-json=ImportPath,Dir,Standard,Module,GoFiles,CgoFiles,SFiles,EmbedFiles"}, runnerImports...)...)
	cmd.Dir = root
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("go list in %s: %w: %s", root, err, stderr.Bytes())
	}
	var pkgs []string
	h := sha256.New()
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir string
			Standard        bool
			Module          *struct {
				Path string
				Main bool
			}
			GoFiles, CgoFiles, SFiles, EmbedFiles []string
		}
		if err := dec.Decode(&p); err != nil {
			return "", nil, err
		}
		if p.Standard {
			continue
		}
		if p.Module == nil || !p.Module.Main || p.Module.Path != modulePath {
			return "", nil, fmt.Errorf("%s is not a package of module %s rooted at %s", p.ImportPath, modulePath, root)
		}
		pkgs = append(pkgs, p.ImportPath)
		for _, name := range slices.Concat(p.GoFiles, p.CgoFiles, p.SFiles, p.EmbedFiles) {
			data, err := os.ReadFile(filepath.Join(p.Dir, name))
			if err != nil {
				return "", nil, err
			}
			fmt.Fprintf(h, "%s/%s\x00%d\x00", p.ImportPath, name, len(data))
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), pkgs, nil
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
	// unavailable, when set, wraps every go build failure: the artifact
	// kind is optional, and its callers test for the condition.
	unavailable error
}

var binaryArtifact = &artifact{file: "runner", manifest: "manifest.json", counters: "aot"}

// Build returns a runner binary for sim's (spec, buildset) pair, generating
// and compiling it on a cache miss. The runner builds inside this module,
// so its source must be on disk (ErrNoSource otherwise). The cache key
// covers everything that determines the binary: the generated source, the
// static harness, the source of the module packages they link, the
// toolchain, and the protocol ABI tag. Cached binaries are verified against
// their manifest hash before reuse; corruption triggers a rebuild, never
// silent use. Concurrent calls for one key build exactly once per process.
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
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, ErrNoToolchain
	}
	mod, err := moduleSource(gobin)
	if err != nil {
		return nil, err
	}
	src, err := sim.EmitRunner(conv)
	if err != nil {
		return nil, err
	}
	key := cacheKey(tc, mod.deps, src)
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

	fl.res, fl.err = buildLocked(a, sim, src, key, cacheDir, entryDir, gobin, mod.root, tc, reg)
	buildMu.Lock()
	delete(buildInflight, flKey)
	buildMu.Unlock()
	close(fl.done)
	return fl.res, fl.err
}

// cacheKey covers everything that determines the binary: the ABI tag, the
// toolchain version and target platform, the digest of the module packages
// the runner links, the static harness, and the generated source.
func cacheKey(tc toolchain, deps, src string) string {
	h := sha256.New()
	for _, part := range []string{abiVersion, tc.Version, tc.OS, tc.Arch, deps, runnerHarness, src} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func buildLocked(a *artifact, sim *core.Sim, src, key, cacheDir, entryDir, gobin, root string, tc toolchain, reg *obs.Registry) (*BuildResult, error) {
	artPath := filepath.Join(entryDir, a.file)
	manPath := filepath.Join(entryDir, a.manifest)

	if ok, corrupt := verifyCached(artPath, manPath, key); ok {
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
	// The runner's package directory exists only in the overlay: the go
	// command reads gen.go and harness.go there from tmp. Its import path is
	// unique to the key, which a plugin needs (see pluginArtifact), and
	// fixed for the key, so the go build cache serves a rebuild.
	pkgDir := filepath.Join("internal", "aot", "gen", "r"+key[:16])
	overlay := map[string]map[string]string{"Replace": {}}
	for name, content := range map[string]string{"gen.go": src, "harness.go": runnerHarness} {
		p := filepath.Join(tmp, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			return nil, fmt.Errorf("aot: writing %s: %w", name, err)
		}
		overlay["Replace"][filepath.Join(root, pkgDir, name)] = p
	}
	overlayPath := filepath.Join(tmp, "overlay.json")
	data, err := json.Marshal(overlay)
	if err == nil {
		err = os.WriteFile(overlayPath, data, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("aot: writing overlay: %w", err)
	}
	tmpArt := filepath.Join(tmp, a.file)
	args := append(append([]string{"build", "-overlay", overlayPath}, a.flags...), "-o", tmpArt, "./"+filepath.ToSlash(pkgDir))
	cmd := exec.Command(gobin, args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		err = fmt.Errorf("aot: go build of generated %s (%s/%s) failed: %w\n%s",
			a.file, sim.Spec.Name, sim.BS.Name, err, out)
		if a.unavailable != nil {
			err = fmt.Errorf("%w: %w", a.unavailable, err)
		}
		return nil, err
	}
	count(reg, a.counters+".build")

	data, err = os.ReadFile(tmpArt)
	if err != nil {
		return nil, fmt.Errorf("aot: reading built %s: %w", a.file, err)
	}
	sum := sha256.Sum256(data)
	man := manifest{
		BinarySHA256: hex.EncodeToString(sum[:]),
		Key:          key,
		GoVersion:    tc.Version,
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
// (manifest present, key matches, binary hash matches). corrupt
// is true when artifacts exist but fail verification — distinguishing damage
// from a plain cold miss.
func verifyCached(binPath, manPath, key string) (ok, corrupt bool) {
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
