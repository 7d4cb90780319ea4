package sql

import (
	"math"
	"testing"
)

// TestCompareIntFloatExact: an INTEGER and a REAL compare by value,
// exactly, as in SQLite — not through float64, which cannot tell 2^53+1
// from 2^53 or math.MaxInt64 from 2^63.
func TestCompareIntFloatExact(t *testing.T) {
	for _, tc := range []struct {
		i    int64
		f    float64
		want int
	}{
		{1<<53 + 1, 1 << 53, 1},
		{1 << 53, 1 << 53, 0},
		{1<<53 - 1, 1 << 53, -1},
		{math.MaxInt64, 1 << 63, -1},
		{math.MaxInt64, math.Inf(1), -1},
		{math.MinInt64, -(1 << 63), 0},
		{math.MinInt64, -1e300, 1},
		{math.MinInt64, math.Inf(-1), 1},
		{2, 2.5, -1},
		{3, 2.5, 1},
		{-2, -2.5, 1},
		{-3, -2.5, -1},
		{0, math.Copysign(0, -1), 0},
	} {
		if got := Compare(Int(tc.i), Float(tc.f)); got != tc.want {
			t.Errorf("Compare(%d, %g) = %d, want %d", tc.i, tc.f, got, tc.want)
		}
		if got := Compare(Float(tc.f), Int(tc.i)); got != -tc.want {
			t.Errorf("Compare(%g, %d) = %d, want %d", tc.f, tc.i, got, -tc.want)
		}
	}
}

// TestCoerceKeepsRealsOutOfIntRange: a whole REAL coerces to INTEGER only
// if int64 holds it. 2^63 stays a REAL rather than wrapping to −2^63.
func TestCoerceKeepsRealsOutOfIntRange(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		want Value
	}{
		{1 << 63, Float(1 << 63)},
		{1e300, Float(1e300)},
		{1 << 62, Int(1 << 62)},
		{-(1 << 63), Int(math.MinInt64)},
	} {
		got, err := Coerce(Float(tc.f), TypeInt)
		if err != nil {
			t.Fatal(err)
		}
		if got.T != tc.want.T || Compare(got, tc.want) != 0 {
			t.Errorf("Coerce(%g, INTEGER) = %s %v, want %s %v", tc.f, got.T, got, tc.want.T, tc.want)
		}
	}
}
