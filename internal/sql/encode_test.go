package sql

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyEncodingOrderInts(t *testing.T) {
	vals := []int64{math.MinInt64, -1000000, -1, 0, 1, 42, 1000000, math.MaxInt64}
	var keys [][]byte
	for _, v := range vals {
		keys = append(keys, EncodeKey(Int(v)))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("int key order broken between %d and %d", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingOrderFloats(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1.5, -0.0, 0.0, 1e-300, 2.5, 1e300, math.Inf(1)}
	var keys [][]byte
	for _, v := range vals {
		keys = append(keys, EncodeKey(Float(v)))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			t.Fatalf("float key order broken between %g and %g", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingOrderStrings(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "aa", "ab", "b"}
	var keys [][]byte
	for _, v := range vals {
		keys = append(keys, EncodeKey(Text(v)))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("string key order broken between %q and %q", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingNullSortsFirst(t *testing.T) {
	n := EncodeKey(Null)
	for _, v := range []Value{Int(math.MinInt64), Float(math.Inf(-1)), Text(""), Blob(nil)} {
		if bytes.Compare(n, EncodeKey(v)) >= 0 {
			t.Fatalf("NULL does not sort before %v", v)
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	vals := []Value{
		Null, Int(-5), Int(0), Int(math.MaxInt64), Float(-2.5), Float(0),
		Text(""), Text("héllo"), Text("a\x00b"), Blob([]byte{0, 1, 0xff, 0}),
	}
	enc := EncodeKey(vals...)
	got, err := DecodeKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i].T != vals[i].T || Compare(got[i], vals[i]) != 0 {
			t.Fatalf("value %d: got %v want %v", i, got[i], vals[i])
		}
	}
}

func TestQuickKeyOrderMatchesValueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(rng.Int63() - rng.Int63())
		case 1:
			return Float((rng.Float64() - 0.5) * 1e10)
		case 2:
			n := rng.Intn(8)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(4)) // lots of zero bytes
			}
			return Text(string(b))
		default:
			n := rng.Intn(8)
			b := make([]byte, n)
			rng.Read(b)
			return Blob(b)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randVal(), randVal()
		// Only compare within the same type class (mixed-type columns
		// do not occur with enforced column affinity).
		if typeRank(a.T) != typeRank(b.T) || a.T != b.T {
			continue
		}
		cmpVal := Compare(a, b)
		cmpKey := bytes.Compare(EncodeKey(a), EncodeKey(b))
		if (cmpVal < 0) != (cmpKey < 0) || (cmpVal == 0) != (cmpKey == 0) {
			t.Fatalf("order mismatch: %v vs %v: val %d key %d", a, b, cmpVal, cmpKey)
		}
	}
}

func TestKeySuccessorCoversExtensions(t *testing.T) {
	base := EncodeKey(Text("user"))
	succ := KeySuccessor(base)
	extended := EncodeKey(Text("user"), Int(42))
	if !(bytes.Compare(base, extended) <= 0 && bytes.Compare(extended, succ) < 0) {
		t.Fatal("extension of key not inside [key, successor)")
	}
	other := EncodeKey(Text("user2"))
	if bytes.Compare(other, succ) < 0 {
		t.Fatal("different key inside successor range")
	}
}

func TestRowRoundTrip(t *testing.T) {
	rows := [][]Value{
		nil,
		{Null},
		{Int(1), Float(2.5), Text("x"), Blob([]byte{9}), Null},
	}
	for _, row := range rows {
		got, err := DecodeRow(EncodeRow(row))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(row) {
			t.Fatalf("row length %d want %d", len(got), len(row))
		}
		for i := range row {
			if got[i].T != row[i].T || Compare(got[i], row[i]) != 0 {
				t.Fatalf("col %d: %v want %v", i, got[i], row[i])
			}
		}
	}
}

// TestRowSlabKeepsOnlyKeptRows: a row a scan's filter rejects is not
// kept, and the next row decodes into its place; a kept row stays.
func TestRowSlabKeepsOnlyKeptRows(t *testing.T) {
	enc := EncodeRow([]Value{Int(1), Text("a")})
	var s rowSlab
	decode := func() []Value {
		row, err := s.decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	rejected := decode()
	kept := decode()
	if &rejected[0] != &kept[0] {
		t.Fatal("a row not kept took room of its own")
	}
	s.keep(kept)
	if next := decode(); &next[0] == &kept[0] {
		t.Fatal("a kept row was decoded over")
	}
	if kept[0].I != 1 || kept[1].S != "a" {
		t.Fatalf("kept row now %v", kept)
	}
}

func TestQuickRowRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte, hasNull bool) bool {
		row := []Value{Int(i), Float(fl), Text(s), Blob(b)}
		if hasNull {
			row = append(row, Null)
		}
		got, err := DecodeRow(EncodeRow(row))
		if err != nil || len(got) != len(row) {
			return false
		}
		for j := range row {
			if got[j].T != row[j].T {
				return false
			}
			// NaN compares unequal to itself; compare bit patterns.
			if row[j].T == TypeFloat {
				if math.Float64bits(got[j].F) != math.Float64bits(row[j].F) {
					return false
				}
				continue
			}
			if Compare(got[j], row[j]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortedKeysSortValues(t *testing.T) {
	// Encoding then byte-sorting a shuffled set of ints must match the
	// numeric sort.
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = EncodeKey(Int(v))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := range vals {
		got, err := DecodeKey(keys[i])
		if err != nil || len(got) != 1 {
			t.Fatal(err)
		}
		if got[0].I != vals[i] {
			t.Fatalf("position %d: key-sorted %d, value-sorted %d", i, got[0].I, vals[i])
		}
	}
}
