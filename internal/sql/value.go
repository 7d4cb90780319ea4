// Package sql implements Yesquel's embedded query processor — box 1 in
// Figure 1 of the paper. Every client links the whole processor (lexer,
// parser, planner, executor, catalog) as a library, so query processing
// capacity scales with the number of clients; only storage operations
// (DBT reads and writes) leave the process.
//
// The supported dialect covers the paper's target workload — the small,
// fast queries of Web applications: CREATE/DROP TABLE, CREATE/DROP
// INDEX, INSERT, SELECT (WHERE, inner JOIN, GROUP BY, aggregates, ORDER
// BY, LIMIT/OFFSET), UPDATE, DELETE, and BEGIN/COMMIT/ROLLBACK mapped
// onto kv transactions.
package sql

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type is the dynamic type of a SQL value.
type Type uint8

const (
	// TypeNull is the SQL NULL.
	TypeNull Type = iota
	// TypeInt is a 64-bit signed integer.
	TypeInt
	// TypeFloat is a 64-bit IEEE float.
	TypeFloat
	// TypeText is a string.
	TypeText
	// TypeBlob is a byte string.
	TypeBlob
)

func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBlob:
		return "BLOB"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Value is one SQL value. The zero Value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
	B []byte
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float returns a real value, or NULL for NaN, as in SQLite: NaN is
// unordered against every number, so Compare has no place for it, yet
// its key would sort at one end of the numbers, out of reach of every key
// range.
func Float(f float64) Value {
	if math.IsNaN(f) {
		return Null
	}
	return Value{T: TypeFloat, F: f}
}

// Text returns a text value.
func Text(s string) Value { return Value{T: TypeText, S: s} }

// Blob returns a blob value (not copied).
func Blob(b []byte) Value { return Value{T: TypeBlob, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Num returns the value as a float64 for arithmetic (0 for non-numeric).
func (v Value) Num() float64 {
	switch v.T {
	case TypeInt:
		return float64(v.I)
	case TypeFloat:
		return v.F
	}
	return 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBlob:
		return fmt.Sprintf("x'%x'", v.B)
	}
	return "?"
}

// Compare orders two non-NULL values. Across types the order is
// numbers < text < blob (as in SQLite); ints and floats compare
// numerically and exactly. Comparing with NULL is the caller's concern
// (3-valued logic); here NULL sorts first, which is what ORDER BY needs.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.T), typeRank(b.T)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both null
		return 0
	case 1: // numeric
		// Exact comparison for int-int avoids float rounding.
		if a.T == TypeInt && b.T == TypeInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		switch {
		case a.T == TypeInt:
			return compareIntFloat(a.I, b.F)
		case b.T == TypeInt:
			return -compareIntFloat(b.I, a.F)
		}
		return cmp.Compare(a.F, b.F)
	case 2:
		return strings.Compare(a.S, b.S)
	default:
		return bytesCompare(a.B, b.B)
	}
}

// compareIntFloat orders the INTEGER i against the REAL f exactly, as
// SQLite does (float64(i) rounds beyond 2^53): by f's integer part, then
// its fraction. A REAL below −2^63 is lower than every INTEGER, one at
// or above 2^63 higher.
func compareIntFloat(i int64, f float64) int {
	switch t := math.Trunc(f); {
	case f < math.MinInt64:
		return 1
	case f >= 1<<63:
		return -1
	case i != int64(t):
		return cmp.Compare(i, int64(t))
	default:
		return cmp.Compare(t, f)
	}
}

func typeRank(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeInt, TypeFloat:
		return 1
	case TypeText:
		return 2
	default:
		return 3
	}
}

func bytesCompare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Truthy reports the WHERE-clause interpretation of v: NULL and zero
// are false.
func (v Value) Truthy() bool {
	switch v.T {
	case TypeNull:
		return false
	case TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeText:
		return v.S != ""
	case TypeBlob:
		return len(v.B) != 0
	}
	return false
}

// Coerce converts v to the declared column type ct, following SQLite-
// style affinity: numbers convert between int and float, text parses to
// numbers when well-formed, NULL stays NULL. A NaN, however it was made,
// becomes NULL (see Float).
func Coerce(v Value, ct Type) (Value, error) {
	if v.T == TypeFloat && math.IsNaN(v.F) {
		return Null, nil
	}
	if v.T == TypeNull || v.T == ct {
		return v, nil
	}
	switch ct {
	case TypeInt:
		switch v.T {
		case TypeFloat:
			// Below 1<<63: math.MaxInt64 rounds up to it as a float64.
			if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F < 1<<63 {
				return Int(int64(v.F)), nil
			}
			return v, nil // keep as float: lossless storage wins
		case TypeText:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64); err == nil {
				return Int(i), nil
			}
			return Value{}, fmt.Errorf("sql: cannot coerce %q to INTEGER", v.S)
		}
	case TypeFloat:
		switch v.T {
		case TypeInt:
			return Float(float64(v.I)), nil
		case TypeText:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
				return Float(f), nil
			}
			return Value{}, fmt.Errorf("sql: cannot coerce %q to REAL", v.S)
		}
	case TypeText:
		return Text(v.String()), nil
	case TypeBlob:
		if v.T == TypeText {
			return Blob([]byte(v.S)), nil
		}
	}
	return Value{}, fmt.Errorf("sql: cannot coerce %s to %s", v.T, ct)
}
