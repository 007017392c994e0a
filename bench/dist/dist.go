// Package dist summarizes benchmark samples by their median and quartiles,
// computed the way Python's statistics.quantiles does by default (the
// "exclusive" method), so the numbers the benchmark and its comparator print
// match the ones a consumer of the result lines computes.
package dist

import "sort"

// Dist is a sample count with its median and quartiles.
type Dist struct {
	N              int
	Median, Q1, Q3 float64
}

// Summarize returns the distribution of vals; the zero Dist when empty.
func Summarize(vals []float64) Dist {
	if len(vals) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Dist{N: len(s), Median: Quantile(s, 2, 4), Q1: Quantile(s, 1, 4), Q3: Quantile(s, 3, 4)}
}

// Spread is the interquartile range as a share of the median.
func (d Dist) Spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / d.Median
}

// Quantile returns the i-th n-quantile of the sorted, non-empty s.
func Quantile(s []float64, i, n int) float64 {
	ld := len(s)
	if ld == 1 {
		return s[0]
	}
	m := ld + 1
	j := min(max(i*m/n, 1), ld-1)
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}
