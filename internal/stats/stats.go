// Package stats provides the small numeric and formatting helpers the
// experiment harness uses: geometric means, rate formatting, and aligned
// markdown tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of vals, or 0 for an empty slice.
//
// Contract: every value must be positive. The geometric mean is undefined
// at or below zero, and the old behavior — silently returning 0 — let a
// single zeroed ERR cell wipe out a whole summary row without a trace.
// Callers aggregating over sweep cells must filter error cells first (see
// expt's cellGeoMean); a non-positive or NaN value here is a caller bug
// and panics so corrupted aggregates fail loudly instead of rendering 0.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if !(v > 0) {
			panic(fmt.Sprintf("stats: GeoMean given non-positive value %v (filter error cells before aggregating)", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// MIPS converts instructions and nanoseconds into millions of simulated
// instructions per second.
func MIPS(instrs uint64, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(instrs) * 1e3 / ns
}

// Table renders rows as an aligned markdown table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Header returns a copy of the table's column headers, so callers (and
// tests) can assert column agreement without parsing the rendered output.
func (t *Table) Header() []string {
	out := make([]string, len(t.header))
	copy(out, t.header)
	return out
}

// Row appends a row (values are stringified with %v; floats get 3
// significant digits).
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatSig(v, 3)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// FormatSig formats a float with n significant digits. Non-finite values
// render as "NaN"/"Inf"/"-Inf" explicitly — feeding them through the
// magnitude computation (math.Log10 then int conversion) produced garbage
// strings. Extreme magnitudes (subnormals, values beyond int64 range)
// switch to scientific notation instead of emitting hundreds of digits.
func FormatSig(v float64, n int) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == 0:
		return "0"
	}
	mag := int(math.Floor(math.Log10(math.Abs(v))))
	if mag < -9 || mag > 18 {
		return fmt.Sprintf("%.*e", n-1, v)
	}
	dec := n - 1 - mag
	if dec < 0 {
		dec = 0
	}
	return fmt.Sprintf("%.*f", dec, v)
}

// String renders the table. The column count is the widest of the header
// and every row: a row with more cells than the header widens the table
// (extra columns get empty headers) instead of silently truncating — the
// old loop iterated the header only and dropped the surplus cells, so a
// miscounted Row call corrupted the rendered data with no visible sign.
// A "|" inside a header or cell is escaped as "\|", so it cannot start a
// new column.
func (t *Table) String() string {
	escape := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = strings.ReplaceAll(c, "|", `\|`)
		}
		return out
	}
	header := escape(t.header)
	rows := make([][]string, len(t.rows))
	ncol := len(header)
	for i, r := range t.rows {
		rows[i] = escape(r)
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		b.WriteString("|")
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", width[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
