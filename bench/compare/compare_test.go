package main

import "testing"

func TestJudge(t *testing.T) {
	mips := metricSpec{Name: "mips_interp", Better: "higher", Bound: 0.1}
	rss := metricSpec{Name: "host_rss_mb", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"same", mips, base, base, noWorse},
		{"faster", mips, base, scaled(1.2), improved},
		{"slightly slower", mips, base, scaled(0.95), noWorse},
		{"much slower", mips, base, scaled(0.8), worse},
		{"smaller is better", rss, base, scaled(0.8), improved},
		{"larger is worse", rss, base, scaled(1.2), worse},
		{"noisy", mips, base, []float64{60, 140, 70, 130, 100, 90, 110, 65, 135, 100}, unresolved},
		{"no pairs", mips, base, nil, unresolved},
	} {
		if got := judge(tc.m, tc.parent, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
