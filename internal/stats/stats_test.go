package stats

import (
	"math"
	"strings"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty slice should be 0")
	}
}

// TestGeoMeanContract is the regression test for the silent-zeroing bug: a
// non-positive value (a zeroed ERR cell leaking into an aggregate) used to
// silently return 0 and wipe the whole summary. It now panics so the
// corruption is loud; callers filter error cells first.
func TestGeoMeanContract(t *testing.T) {
	for _, vals := range [][]float64{{1, 0}, {-2, 4}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GeoMean(%v) should panic", vals)
				}
			}()
			GeoMean(vals)
		}()
	}
}

func TestMIPS(t *testing.T) {
	// 100 instructions in 10ns/instr = 1000ns total -> 100 MIPS.
	if m := MIPS(100, 1000); math.Abs(m-100) > 1e-9 {
		t.Errorf("mips = %f", m)
	}
	if MIPS(1, 0) != 0 {
		t.Error("zero time")
	}
}

// TestFormatSig covers the regression for NaN/±Inf (which used to go
// through int(math.Floor(math.Log10(...))) and render garbage) plus zero,
// subnormals, and large magnitudes.
func TestFormatSig(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{37.84, "37.8"},
		{9.856, "9.86"},
		{0.12345, "0.123"},
		{1234, "1234"},
		{0, "0"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Inf"},
		{math.Inf(-1), "-Inf"},
		{-37.84, "-37.8"},
		{5e-320, "5.00e-320"},         // subnormal: scientific, not 300+ zeros
		{1.5e21, "1.50e+21"},          // beyond int64 magnitude
		{1e18, "1000000000000000000"}, // largest magnitude kept in plain notation
	}
	for _, c := range cases {
		if got := FormatSig(c.v, 3); got != c.want {
			t.Errorf("FormatSig(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("a", "bb").Row("x", 1.5).Row("yyyy", 2)
	out := tb.String()
	if !strings.Contains(out, "| yyyy |") || !strings.Contains(out, "1.50") {
		t.Errorf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines", len(lines))
	}

	// A pipe inside a header or cell is escaped, so it cannot start a new
	// column: every line keeps exactly the table's three separators.
	out = NewTable("ns | work", "b").Row("1 | 2", "x").String()
	if !strings.Contains(out, `| ns \| work |`) || !strings.Contains(out, `| 1 \| 2     |`) {
		t.Errorf("pipes not escaped:\n%s", out)
	}
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if got := strings.Count(ln, "|") - strings.Count(ln, `\|`); got != 3 {
			t.Errorf("line %q has %d column separators, want 3", ln, got)
		}
	}
}

// TestTableWideRow is the regression test for silent cell truncation: a
// row with more cells than the header used to render only the header's
// columns, dropping the surplus data. The table now widens instead.
func TestTableWideRow(t *testing.T) {
	tb := NewTable("a", "b").Row("1", "2", "extra", "more")
	out := tb.String()
	for _, want := range []string{"extra", "more"} {
		if !strings.Contains(out, want) {
			t.Errorf("widened table dropped %q:\n%s", want, out)
		}
	}
	// Every line must have the widened column count.
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if got := strings.Count(ln, "|"); got != 5 {
			t.Errorf("line %q has %d separators, want 5", ln, got)
		}
	}
}
