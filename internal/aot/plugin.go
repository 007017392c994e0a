package aot

import (
	"errors"
	"fmt"
	"plugin"
	"sync"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/obs"
)

// The plugin transport loads the generated runner into the host process
// (go build -buildmode=plugin + plugin.Open) so Step/Block interfaces skip
// the pipe entirely: Init/Run become direct calls carrying the same frame
// payloads the subprocess protocol does, minus the length prefixes and the
// two process switches per exchange. Builds go through the subprocess
// binary's cached build (build.go) and replies through its run-frame loop
// (runFrames), so the transports differ only in how frames travel.
//
// Availability is a build-time property of the toolchain on PATH
// (-buildmode=plugin needs cgo and a supported GOOS/GOARCH, in practice
// linux and a few friends). Every unavailability — unsupported platform,
// cgo disabled, plugin.Open refusing the artifact — surfaces as a typed
// ErrNoPlugin.

// ErrNoPlugin reports that the in-process plugin transport is not available
// here; errors.Is(err, ErrNoPlugin) identifies the condition through
// wrapping.
var ErrNoPlugin = errors.New("aot: plugin transport not available")

// pluginArtifact is the runner built as a Go plugin, beside the subprocess
// binary in the same cache entry. Its package path is unique per cache key
// (build.go): the plugin's lookup path and its dynamic symbol prefix both
// derive from the main package's import path at compile time, and
// plugin.Open refuses two plugins sharing a path, so distinct
// (spec, buildset) runners must differ there. (Overriding -pluginpath at
// link time only renames the lookup path, not the compiled symbols, which
// breaks dlsym.) The plugin shares the substrate packages (mach, sysemu,
// lis, isa) with its host, so plugin.Open also refuses it unless both were
// built from the same source with the same flags. The cgo requirement is
// inherited from the environment on purpose: under CGO_ENABLED=0, or on a
// host without a C toolchain, the build fails with ErrNoPlugin.
var pluginArtifact = &artifact{file: "runner.so", manifest: "plugin-manifest.json", counters: "aot.plugin",
	flags: []string{"-buildmode=plugin"}, unavailable: ErrNoPlugin}

// BuildPlugin compiles the runner for sim's (spec, buildset) pair as a Go
// plugin, sharing Build's cache: the .so and its own manifest live next to
// the subprocess binary under the same source-keyed entry. A failed build
// (no cgo, unsupported platform) returns an ErrNoPlugin-wrapped error.
func BuildPlugin(sim *core.Sim, conv core.RunnerConv, cacheDir string, reg *obs.Registry) (*BuildResult, error) {
	return build(pluginArtifact, sim, conv, cacheDir, reg)
}

// pluginExports are the symbols a runner plugin provides, of builtin types
// only, so the host needs none of the runner's own types.
type pluginExports struct {
	hello func() []byte
	init  func([]byte) string
	run   func([]byte) ([][]byte, string)
}

// PluginHandle is one loaded runner plugin. plugin.Open pins a .so for the
// process lifetime and the runner's machine state is package-global inside
// it, so a handle is a shared, serially-usable resource: Session acquires
// exclusive use, and handles are cached per path (LoadPlugin of one path
// returns one handle).
type PluginHandle struct {
	path  string
	hello Hello
	fns   pluginExports
	mu    sync.Mutex
}

var (
	pluginRegMu sync.Mutex
	pluginReg   = map[string]*PluginHandle{}
)

// LoadPlugin opens a runner plugin built by BuildPlugin and verifies its
// hello. Any failure to load or bind — unsupported platform, stale ABI,
// missing symbols — is reported wrapped in ErrNoPlugin.
func LoadPlugin(soPath string) (*PluginHandle, error) {
	pluginRegMu.Lock()
	defer pluginRegMu.Unlock()
	if h, ok := pluginReg[soPath]; ok {
		return h, nil
	}
	pl, err := plugin.Open(soPath)
	if err != nil {
		return nil, fmt.Errorf("%w: opening %s: %v", ErrNoPlugin, soPath, err)
	}
	var fns pluginExports
	lookups := []struct {
		name string
		bind func(plugin.Symbol) bool
	}{
		{"PluginHello", func(s plugin.Symbol) bool { f, ok := s.(func() []byte); fns.hello = f; return ok }},
		{"PluginInit", func(s plugin.Symbol) bool { f, ok := s.(func([]byte) string); fns.init = f; return ok }},
		{"PluginRun", func(s plugin.Symbol) bool { f, ok := s.(func([]byte) ([][]byte, string)); fns.run = f; return ok }},
	}
	for _, l := range lookups {
		sym, err := pl.Lookup(l.name)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrNoPlugin, soPath, err)
		}
		if !l.bind(sym) {
			return nil, fmt.Errorf("%w: %s: symbol %s has wrong type %T", ErrNoPlugin, soPath, l.name, sym)
		}
	}
	helloFrame := fns.hello()
	hello, err := decodeHelloFrame(helloFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoPlugin, soPath, err)
	}
	h := &PluginHandle{path: soPath, hello: *hello, fns: fns}
	pluginReg[soPath] = h
	return h, nil
}

// Session acquires exclusive use of the plugin's machine state and returns
// a Client over it. Close releases the handle for the next session; the
// plugin itself stays loaded (the platform offers no unload).
func (h *PluginHandle) Session() *PluginSession {
	h.mu.Lock()
	return &PluginSession{h: h, store: takeStore()}
}

// PluginSession is one exclusive Init/Run session against a loaded runner
// plugin. It implements Client with the same observable semantics as a
// fresh subprocess: Init hard-resets the in-plugin machine.
type PluginSession struct {
	h      *PluginHandle
	closed bool
	store  recordStore
}

func (s *PluginSession) Hello() Hello { return s.h.hello }

func (s *PluginSession) Init(prog *asm.Program, stdin []byte) error {
	if s.closed {
		return fmt.Errorf("aot: plugin session closed")
	}
	if errs := s.h.fns.init(encodeInitPayload(prog, stdin)[1:]); errs != "" {
		return fmt.Errorf("aot: plugin init: %s", errs)
	}
	return nil
}

func (s *PluginSession) Run(maxInstr uint64, wantRecs bool, resultAddr uint64) (*RunResult, error) {
	if s.closed {
		return nil, fmt.Errorf("aot: plugin session closed")
	}
	frames, errs := s.h.fns.run(encodeRunPayload(maxInstr, wantRecs, resultAddr)[1:])
	if errs != "" {
		return nil, fmt.Errorf("aot: plugin run: %s", errs)
	}
	return runReply(frames, len(s.h.hello.VisNames), &s.store)
}

// Close releases the plugin for the next session and hands the record
// storage to the next client, so the last Run's records are invalid after
// it.
func (s *PluginSession) Close() error {
	if !s.closed {
		s.closed = true
		giveStore(s.store)
		s.store = recordStore{}
		s.h.mu.Unlock()
	}
	return nil
}
