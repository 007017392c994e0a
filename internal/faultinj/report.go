package faultinj

import (
	"fmt"
	"strings"

	"singlespec/internal/obs"
	"singlespec/internal/stats"
)

// Report is the rendered outcome of one campaign. For a given Config it is
// byte-identical across runs, hosts, and worker counts — the determinism
// contract campaigns are built on.
type Report struct {
	Seed    uint64
	Results []Result
}

// Failures returns the cells that diverged or errored.
func (r *Report) Failures() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.OK() {
			out = append(out, res)
		}
	}
	return out
}

// record merges the campaign's outcome counters into reg, one counter
// family per fault class. Results are deterministic per seed, so the
// counters inherit the report's byte-identity across worker counts.
func (r *Report) record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, res := range r.Results {
		p := "faultinj." + res.Class.String() + "."
		reg.Counter(p + "planned").Add(uint64(res.Planned))
		reg.Counter(p + "injected").Add(uint64(res.Injected))
		reg.Counter(p + "recovered").Add(uint64(res.Recovered))
		reg.Counter(p + "faults").Add(uint64(res.Faults))
		if res.Divergence != nil {
			reg.Counter(p + "divergences").Inc()
		}
		if res.Err != nil {
			reg.Counter(p + "errors").Inc()
		}
	}
}

// Outcomes converts the campaign's results into manifest cell outcomes
// (status "ok", "diverged", or "error"; the kernel rides in the buildset
// field alongside the interface name).
func (r *Report) Outcomes() []obs.CellOutcome {
	out := make([]obs.CellOutcome, 0, len(r.Results))
	for _, res := range r.Results {
		status := "ok"
		switch {
		case res.Err != nil:
			status = "error"
		case res.Divergence != nil:
			status = "diverged"
		}
		out = append(out, obs.CellOutcome{
			ISA:      res.ISA,
			Buildset: res.Buildset + "/" + res.Class.String() + "/" + res.Kernel,
			Status:   status,
			Attempts: 1,
			Instret:  res.RefInstret,
		})
	}
	return out
}

// Table renders one row per cell in deterministic cell order.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable("ISA", "Kernel", "Class", "Interface",
		"Planned", "Injected", "Recovered", "Faults", "Instret", "Status")
	for _, res := range r.Results {
		status := "ok"
		switch {
		case res.Err != nil:
			status = "ERROR"
		case res.Divergence != nil:
			status = "DIVERGED"
		}
		t.Row(res.ISA, res.Kernel, res.Class.String(), res.Buildset,
			res.Planned, res.Injected, res.Recovered, res.Faults,
			res.RefInstret, status)
	}
	return t
}

// String renders the full report: summary line, per-cell table, and full
// detail for every failure.
func (r *Report) String() string {
	var b strings.Builder
	injected, recovered := 0, 0
	for _, res := range r.Results {
		injected += res.Injected
		recovered += res.Recovered
	}
	failures := r.Failures()
	fmt.Fprintf(&b, "fault campaign: seed %d, %d cells, %d faults injected, %d recovered, %d failures\n\n",
		r.Seed, len(r.Results), injected, recovered, len(failures))
	b.WriteString(r.Table().String())
	for _, res := range failures {
		fmt.Fprintf(&b, "\nFAIL %s (%s):\n", res.Key(), res.Buildset)
		if res.Divergence != nil {
			fmt.Fprintf(&b, "  %s\n", res.Divergence)
		}
		if res.Err != nil {
			fmt.Fprintf(&b, "  error: %v\n", res.Err)
		}
	}
	return b.String()
}
