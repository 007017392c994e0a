package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers get-or-create and Add from many goroutines
// (run under -race): the total must be exact, and every goroutine must
// resolve the same name to the same counter.
func TestCounterConcurrent(t *testing.T) {
	const workers, perWorker = 16, 10000
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Re-resolving by name each iteration races the registry's
				// get-or-create path on purpose.
				r.Counter("hammered").Inc()
				r.Counter("batched").Add(3)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hammered").Load(); got != workers*perWorker {
		t.Errorf("hammered = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("batched").Load(); got != 3*workers*perWorker {
		t.Errorf("batched = %d, want %d", got, 3*workers*perWorker)
	}
}

// TestHistogramConcurrent hammers Observe across the full bucket range and
// checks count, sum, and per-bucket totals are exact.
func TestHistogramConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	r := NewRegistry()
	bounds := []uint64{10, 100, 1000}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Values 0..9999 cycle deterministically through every bucket.
				r.Histogram("lat", bounds).Observe(uint64((w*perWorker + i) % 10000))
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot().Histograms["lat"]
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketSum uint64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Errorf("bucket total %d != count %d", bucketSum, s.Count)
	}
	// 40000 observations cycle 4 full times through 0..9999: <=10 has 11
	// values per cycle, (10,100] has 90, (100,1000] has 900, rest overflow.
	want := []uint64{4 * 11, 4 * 90, 4 * 900, 4 * 8999}
	for i, n := range s.Counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

// TestNilSafety: a nil registry hands out nil instruments and every method
// no-ops — the zero-cost-when-disabled contract instrumented code relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Error("nil registry should hand out a nil counter")
	}
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter should read 0")
	}
	h := r.Histogram("h", []uint64{1})
	if h != nil {
		t.Error("nil registry should hand out a nil histogram")
	}
	h.Observe(7)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}

// TestSnapshotDeterministic: two registries filled identically marshal to
// byte-identical JSON — the property the -metrics-out determinism contract
// (and its CI check) is built on.
func TestSnapshotDeterministic(t *testing.T) {
	fill := func() *Registry {
		r := NewRegistry()
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Add(1)
		r.Counter("m.middle").Add(2)
		h := r.Histogram("h", []uint64{1, 2, 4})
		for _, v := range []uint64{0, 1, 3, 9} {
			h.Observe(v)
		}
		return r
	}
	j1, err := fill().Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := fill().Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", j1, j2)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	for _, bad := range [][]uint64{nil, {}, {5, 5}, {9, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) should panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

// TestManifestWriteFile round-trips a manifest through disk and checks the
// schema keys the CI robustness job validates.
func TestManifestWriteFile(t *testing.T) {
	m := NewManifest("ssbench-test")
	m.Flags["metric"] = "work"
	m.Cells = append(m.Cells, CellOutcome{
		ISA: "alpha64", Buildset: "block_min", Status: "ok",
		Instret: 1000, WorkUnits: 4000,
	})
	r := NewRegistry()
	r.Counter("expt.cell.ok").Inc()
	m.Metrics = r.Snapshot()

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	for _, key := range []string{"tool", "go_version", "os", "arch", "flags", "cells", "metrics"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("manifest missing key %q", key)
		}
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "ssbench-test" || back.Metrics.Counters["expt.cell.ok"] != 1 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	if len(back.Cells) != 1 || back.Cells[0].Status != "ok" {
		t.Errorf("cells round-trip mismatch: %+v", back.Cells)
	}
}

// TestWriteFileAtomic checks that a write replaces an existing file whole,
// and that a failed write (the target is a directory, so the final rename
// fails) returns an error and leaves no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old contents, longer than the new\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new\n" {
		t.Fatalf("after write: %q, %v; want %q", got, err, "new\n")
	}

	target := filepath.Join(dir, "sub")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "out.json" || names[1] != "sub" {
		t.Errorf("directory holds %v after a failed write, want [out.json sub]", names)
	}
}
