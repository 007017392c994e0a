package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"regexp"
	"testing"

	"singlespec/internal/aot"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclaredMetricsMatch keeps BENCHMARK.json and the program's metric
// tables in step: same workloads, same names, same units, same order.
func TestDeclaredMetricsMatch(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		file []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		prog []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(set.file) != len(set.prog) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program %d", len(set.file), len(set.prog))
		}
		for i, m := range set.file {
			if m.Name != set.prog[i].name || m.Unit != set.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, set.prog[i].name, set.prog[i].unit)
			}
		}
	}
}

// TestWorkloadsQuick runs every workload in -quick mode, untraced and
// traced, and checks that each emits every metric BENCHMARK.json names,
// with a well-formed name and unit, and that no run fails.
func TestWorkloadsQuick(t *testing.T) {
	bf := loadBenchmarkFile(t)
	workDir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			declared := bf.EndToEnd
			if traced {
				declared = bf.PerLayer
			}
			cfg := config{seed: 7, trace: traced, quick: true, workDir: workDir, spans: workDir + "/spans.json"}
			res, err := runWorkload(w, cfg, io.Discard)
			if errors.Is(err, aot.ErrNoToolchain) {
				t.Skip("no go toolchain for the AOT runners")
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d runs failed", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s not emitted", w.name, traced, d.Name)
				case !nameRE.MatchString(d.Name) || len(d.Name) > 64:
					t.Errorf("malformed metric name %q", d.Name)
				case !unitRE.MatchString(m.Unit):
					t.Errorf("metric %s: malformed unit %q", d.Name, m.Unit)
				}
			}
		}
	}
}

// TestCheckFailsRun feeds the checks a wrong expected checksum and,
// separately, an AOT run whose instruction count differs from the
// interpreter's. Each must fail the run and make the program exit non-zero.
func TestCheckFailsRun(t *testing.T) {
	interpRef := outcome{instrs: 1000, halted: true, result: 42}
	for _, tc := range []struct {
		name string
		want uint32
		run  outcome
	}{
		{"wrong checksum", 43, interpRef},
		{"aot instret differs", 42, outcome{instrs: 999, halted: true, result: 42}},
	} {
		if err := check(tc.run, tc.want, &interpRef); err == nil {
			t.Errorf("%s: check passed", tc.name)
		}
		key := refKey{"alpha64", "one_all", 0}
		b := &bench{
			sizes:   []kernelSize{{name: "kernel", want: tc.want}},
			refs:    map[refKey]outcome{key: interpRef},
			streams: map[streamKey]outcome{},
		}
		b.finish(&cell{name: "alpha64/one_all/aot", backend: aotPipe}, key, false, tc.run, nil, true)
		res := b.report(io.Discard, nil)
		if res.Attempted != 1 || res.Failed != 1 {
			t.Errorf("%s: %d of %d runs failed, want 1 of 1", tc.name, res.Failed, res.Attempted)
		}
		if res.exitCode() == 0 {
			t.Errorf("%s: exit code 0", tc.name)
		}
	}
}
