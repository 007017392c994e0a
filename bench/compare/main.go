// Command compare is the benchmark's A/B comparator. It reads the result
// lines of alternating runs of a parent commit and a change, and judges each
// (workload, end-to-end metric) pair against the bound BENCHMARK.json fixes.
//
//	compare -benchmark BENCHMARK.json -parent runs/parent -change runs/change
//
// Each directory holds one file per run, named <workload>.<run>.json, whose
// last line is the benchmark's result line (a whole captured stdout works).
// Run i of the parent is paired with run i of the change. Per pair it prints
// each side's median and quartiles, the share of pairs the change wins and
// a verdict:
//
//   - improved: the change wins at least 9 in 10 pairs and its median beats
//     the parent's by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the bound, and the spread is within the bound or every change run is
//     worse than every parent run;
//   - unresolved: either side's spread (IQR over median) exceeds the bound,
//     unless every change run is better than every parent run;
//   - no worse: otherwise.
//
// The exit code is 1 when any pair is worse or any run failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"singlespec/bench/dist"
)

// spec is the part of BENCHMARK.json the comparator needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the benchmark's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition with the metrics' bounds")
	parentDir := flag.String("parent", "", "directory of the parent commit's result files")
	changeDir := flag.String("change", "", "directory of the change's result files")
	flag.Parse()
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "compare: -parent and -change are required")
		os.Exit(2)
	}
	sp, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	bad := false
	fmt.Printf("%-8s %-24s %-36s %-36s %-7s %s\n", "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "wins", "verdict")
	for _, w := range sp.Workloads {
		parent, pFailed, err := loadRuns(*parentDir, w.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(2)
		}
		change, cFailed, err := loadRuns(*changeDir, w.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(2)
		}
		if len(parent) == 0 && len(change) == 0 {
			continue
		}
		if pFailed+cFailed > 0 {
			fmt.Printf("%-8s runs with failures: parent %d, change %d\n", w.Name, pFailed, cFailed)
			bad = true
		}
		for _, m := range sp.EndToEnd {
			p, c := values(parent, m.Name), values(change, m.Name)
			r := judge(m, p, c)
			fmt.Printf("%-8s %-24s %-36s %-36s %-7s %s\n", w.Name, m.Name, describe(r.parent), describe(r.change),
				fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
			if r.verdict == worse {
				bad = true
			}
		}
	}
	if bad {
		os.Exit(1)
	}
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// loadRuns reads dir's result files for one workload in run order and
// counts the runs that failed or were not correct.
func loadRuns(dir, workload string) (runs []result, failed int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, workload+".*.json"))
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(paths, func(i, j int) bool { return runIndex(paths[i], workload) < runIndex(paths[j], workload) })
	for _, p := range paths {
		r, err := lastResult(p)
		if err != nil {
			return nil, 0, err
		}
		if !r.Correct || r.Failed > 0 {
			failed++
		}
		runs = append(runs, r)
	}
	return runs, failed, nil
}

// runIndex orders <workload>.<run>.json files by a numeric run, falling back
// to the name.
func runIndex(path, workload string) string {
	run := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), workload+"."), ".json")
	if n, err := strconv.Atoi(run); err == nil {
		return fmt.Sprintf("%020d", n)
	}
	return run
}

// lastResult parses the last non-empty line of a captured benchmark output.
func lastResult(path string) (result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

func values(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describe(d dist.Dist) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", d.Median, d.Q1, d.Q3, d.N)
}

const (
	improved   = "improved"
	noWorse    = "no worse"
	unresolved = "unresolved"
	worse      = "worse"
)

type judgement struct {
	parent, change dist.Dist
	wins, pairs    int
	verdict        string
}

// judge compares one metric's parent and change runs.
func judge(m metricSpec, parent, change []float64) judgement {
	better := func(a, b float64) bool { return a > b }
	if m.Better == "lower" {
		better = func(a, b float64) bool { return a < b }
	}
	j := judgement{parent: dist.Summarize(parent), change: dist.Summarize(change)}
	j.pairs = min(len(parent), len(change))
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	if j.pairs == 0 {
		j.verdict = unresolved
		return j
	}
	pm, cm := j.parent.Median, j.change.Median
	worseBy := (pm - cm) / pm
	if m.Better == "lower" {
		worseBy = (cm - pm) / pm
	}
	spread := math.Max(j.parent.Spread(), j.change.Spread())
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	switch {
	case 10*j.wins >= 9*j.pairs && better(cm, pm) && math.Abs(cm-pm) > j.parent.Q3-j.parent.Q1:
		j.verdict = improved
	case worseBy > m.Bound && (spread <= m.Bound || allWorse):
		j.verdict = worse
	case spread > m.Bound && !allBetter:
		j.verdict = unresolved
	default:
		j.verdict = noWorse
	}
	return j
}
