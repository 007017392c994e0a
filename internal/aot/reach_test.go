//go:build go1.24

package aot

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestClosedRunnersUnreachable: once closed and dropped, a Runner is
// garbage, even though the watchdog armed a timer for each of its
// exchanges and the runtime may keep a stopped timer for a while.
func TestClosedRunnersUnreachable(t *testing.T) {
	i, sim := loadSim(t, "alpha64", "one_all")
	b := buildRunner(t, i, sim, nil)
	prog := kernelProgram(t, i, "crc32", 64)
	ptrs := make([]weak.Pointer[Runner], 16)
	for k := range ptrs {
		r, err := SpawnWithDeadline(b.BinPath, nil, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Init(prog, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		ptrs[k] = weak.Make(r)
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for _, p := range ptrs {
		if p.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Errorf("%d of %d closed runners still reachable after two collections", live, len(ptrs))
	}
}
