package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"singlespec/internal/expt"
	"singlespec/internal/faultinj"
	"singlespec/internal/obs"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name        string
		table       int
		scale       int
		faults      int64
		faultEvents int
		benchOut    string
		set         []string // flags given on the command line
		ok          bool
	}{
		{"defaults", 0, 2, -1, 4, "", nil, true},
		{"table 3 with bench-out", 3, 1, -1, 4, "b.json", []string{"table", "scale", "bench-out"}, true},
		{"campaign", 0, 2, 0, 2, "", []string{"faults", "fault-events", "fault-classes"}, true},
		{"campaign with metrics-out", 0, 2, 0, 4, "", []string{"faults", "metrics-out"}, true},
		{"table 4", 4, 2, -1, 4, "", []string{"table"}, false},
		{"table -1", -1, 2, -1, 4, "", []string{"table"}, false},
		{"scale 0", 2, 0, -1, 4, "", []string{"scale"}, false},
		{"table 1 with bench-out", 1, 2, -1, 4, "b.json", []string{"table", "bench-out"}, false},
		{"campaign with bench-out", 0, 2, 7, 4, "b.json", []string{"faults", "bench-out"}, false},
		{"negative fault events", 0, 2, 0, -5, "", []string{"faults", "fault-events"}, false},
		{"zero fault events", 0, 2, 0, 0, "", []string{"faults", "fault-events"}, false},
		{"campaign with table", 2, 2, 0, 1, "", []string{"faults", "fault-events", "table"}, false},
		{"campaign with scale", 0, 3, 0, 4, "", []string{"faults", "scale"}, false},
		{"campaign with dur", 0, 2, 0, 4, "", []string{"faults", "dur"}, false},
		{"campaign with metric", 0, 2, 0, 4, "", []string{"faults", "metric"}, false},
		{"fault events without campaign", 0, 2, -1, 1, "", []string{"fault-events"}, false},
		{"fault classes without campaign", 2, 2, -1, 4, "", []string{"table", "fault-classes"}, false},
		{"tables with faults -1", 2, 2, -1, 4, "", []string{"faults", "table"}, true},
	} {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlags(c.table, c.scale, c.faults, c.faultEvents, c.benchOut, set)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// documentedMetrics returns the metric names listed in the first column of
// the table in EXPERIMENTS.md's "Reading `-metrics-out`" section.
func documentedMetrics(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "## Reading `-metrics-out`")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no \"Reading `-metrics-out`\" section")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	code := regexp.MustCompile("`([^`]+)`")
	var names []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.SplitN(line[1:], "|", 2)[0]
		for _, m := range code.FindAllStringSubmatch(first, -1) {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		t.Fatal("no metric names found in EXPERIMENTS.md")
	}
	return names
}

// matchMetric reports whether name matches the documented pattern, in
// which a <placeholder> segment matches any one segment.
func matchMetric(pattern, name string) bool {
	ps, ns := strings.Split(pattern, "."), strings.Split(name, ".")
	if len(ps) != len(ns) {
		return false
	}
	for i, p := range ps {
		if p != ns[i] && !(strings.HasPrefix(p, "<") && strings.HasSuffix(p, ">")) {
			return false
		}
	}
	return true
}

// TestMetricNamesDocumented checks EXPERIMENTS.md's list of -metrics-out
// names against what ssbench registers: the ablation sweep at scale 1
// under the work metric and a default-seed campaign. Every registered name
// must be documented, and every documented expt.* name must be registered,
// except the expt.cell.err.<kind> counters, which appear only when a cell
// fails; those must name exactly the kinds a CellError can have.
func TestMetricNamesDocumented(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	reg := obs.NewRegistry()
	if _, _, err := expt.Ablations(expt.Config{Scale: 1, Metric: expt.MetricWork, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := faultinj.Run(faultinj.Config{Seed: 0, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	registered := map[string]bool{}
	for name := range snap.Counters {
		registered[name] = true
	}
	for name := range snap.Histograms {
		registered[name] = true
	}

	documented := documentedMetrics(t)
	var undocumented []string
	for name := range registered {
		found := false
		for _, p := range documented {
			if matchMetric(p, name) {
				found = true
				break
			}
		}
		if !found {
			undocumented = append(undocumented, name)
		}
	}
	sort.Strings(undocumented)
	for _, name := range undocumented {
		t.Errorf("%s is registered but not listed in EXPERIMENTS.md", name)
	}

	const errPrefix = "expt.cell.err."
	kinds := map[string]bool{expt.CellPanic.String(): false, expt.CellFailed.String(): false}
	for _, p := range documented {
		switch {
		case strings.HasPrefix(p, errPrefix):
			kind := strings.TrimPrefix(p, errPrefix)
			if _, ok := kinds[kind]; !ok {
				t.Errorf("EXPERIMENTS.md lists %s, but %q is not a cell error kind", p, kind)
			}
			kinds[kind] = true
		case strings.HasPrefix(p, "expt.") && !registered[p]:
			t.Errorf("EXPERIMENTS.md lists %s, which the sweep does not register", p)
		}
	}
	for kind, listed := range kinds {
		if !listed {
			t.Errorf("EXPERIMENTS.md does not list %s%s", errPrefix, kind)
		}
	}
}
