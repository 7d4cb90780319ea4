package sql

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"yesquel/internal/wire"
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
		// Only compare within one type class: INTEGER and REAL share
		// the numeric class, so mixed numeric pairs are compared too.
		if typeRank(a.T) != typeRank(b.T) {
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
// TestCatalogRowRoundTrip: a table's and an index's catalog rows decode
// to what was encoded, a rowid table's missing primary key included, and
// a row that claims more columns than its bytes hold, or a primary key
// past its columns, fails before anything is allocated for it.
func TestCatalogRowRoundTrip(t *testing.T) {
	for _, ts := range []*TableSchema{
		{Name: "t", TreeID: 17, PKCol: 1, Cols: []ColDef{{Name: "v", Type: TypeText}, {Name: "id", Type: TypeInt, PrimaryKey: true, NotNull: true}}},
		{Name: "log", TreeID: 1 << 40, PKCol: -1, Cols: []ColDef{{Name: "msg", Type: TypeText}}},
	} {
		got, err := wire.Decode(wire.Encode(ts, (*TableSchema).wire), errCorruptCatalog, (*TableSchema).wire)
		if err != nil || !reflect.DeepEqual(got, ts) {
			t.Errorf("table %+v decoded as %+v, %v", ts, got, err)
		}
	}
	is := &IndexSchema{Name: "t_v", Table: "t", TreeID: 18, Col: "v", ColIdx: 0, Unique: true}
	if got, err := wire.Decode(wire.Encode(is, (*IndexSchema).wire), errCorruptCatalog, (*IndexSchema).wire); err != nil || *got != *is {
		t.Errorf("index %+v decoded as %+v, %v", is, got, err)
	}
	hostile := wire.NewBuffer(16)
	hostile.PutString("t")
	hostile.PutUvarint(17)
	hostile.PutUvarint(0)
	hostile.PutUvarint(1 << 40) // columns
	if _, err := wire.Decode(hostile.Bytes(), errCorruptCatalog, (*TableSchema).wire); !errors.Is(err, errCorruptCatalog) {
		t.Errorf("2^40 columns in %d bytes: %v", len(hostile.Bytes()), err)
	}
	pastCols := wire.Encode(&TableSchema{Name: "t", PKCol: 1, Cols: []ColDef{{Name: "id"}}}, (*TableSchema).wire)
	if _, err := wire.Decode(pastCols, errCorruptCatalog, (*TableSchema).wire); !errors.Is(err, errCorruptCatalog) {
		t.Errorf("primary key 1 of one column: %v", err)
	}
}

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
	byKey := slices.Clone(vals)
	slices.SortFunc(byKey, func(a, b int64) int { return bytes.Compare(EncodeKey(Int(a)), EncodeKey(Int(b))) })
	slices.Sort(vals)
	for i := range vals {
		if byKey[i] != vals[i] {
			t.Fatalf("position %d: key-sorted %d, value-sorted %d", i, byKey[i], vals[i])
		}
	}
}

// FuzzKeyOrder checks the key encoding's contract: for any two values a
// column can hold (a NaN is NULL: Float, Coerce), the sign of Compare on
// the values is the sign of bytes.Compare on their keys, also with a row
// key after each, as in an index entry; and [k, KeySuccessor(k)) holds
// exactly the keys of values equal to k's, an index entry's among them.
// Each input names two values by a type selector and an INTEGER, REAL
// and string to draw from.
func FuzzKeyOrder(f *testing.F) {
	const big = 1 << 53
	seeds := []Value{
		Null,
		Int(math.MinInt64), Int(math.MinInt64 + 1), Int(-big - 3), Int(-big - 1), Int(-big), Int(-1000000),
		Int(-1), Int(0), Int(1), Int(3), Int(42), Int(1000000),
		Int(big - 1), Int(big), Int(big + 1), Int(big + 2), Int(big + 3), Int(1<<60 + 1),
		Int(math.MaxInt64 - 1), Int(math.MaxInt64),
		Float(math.Inf(-1)), Float(-1 << 63), Float(-big), Float(-1e300), Float(-1.5), Float(math.Copysign(0, -1)),
		Float(0), Float(1e-300), Float(math.SmallestNonzeroFloat64), Float(2.5), Float(3), Float(big),
		Float(big + 2), Float(1 << 60), Float(1 << 63), Float(1e300), Float(math.Inf(1)),
		Text(""), Text("a"), Text("a\x00"), Text("a\x00b"), Text("aa"), Text("ab"), Text("b"), Text("héllo"),
		Blob(nil), Blob([]byte{0, 1, 0xff, 0}), Blob([]byte{0xff}),
	}
	sel := func(v Value) (uint8, int64, float64, string) {
		return uint8(v.T), v.I, v.F, v.S + string(v.B)
	}
	for _, a := range seeds {
		for _, b := range seeds {
			ta, ia, fa, sa := sel(a)
			tb, ib, fb, sb := sel(b)
			f.Add(ta, ia, fa, sa, tb, ib, fb, sb)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f.Add(uint8(TypeInt), rng.Int63()-rng.Int63(), 0.0, "", uint8(TypeInt), rng.Int63()-rng.Int63(), 0.0, "")
		f.Add(uint8(TypeInt), rng.Int63n(4*big)-2*big, 0.0, "", uint8(TypeFloat), int64(0), float64(rng.Int63n(4*big)-2*big), "")
		f.Add(uint8(TypeFloat), int64(0), (rng.Float64()-0.5)*1e10, "", uint8(TypeFloat), int64(0), (rng.Float64()-0.5)*1e10, "")
	}
	value := func(t uint8, i int64, fl float64, s string) Value {
		switch Type(t % 5) {
		case TypeInt:
			return Int(i)
		case TypeFloat:
			return Float(fl)
		case TypeText:
			return Text(s)
		case TypeBlob:
			return Blob([]byte(s))
		}
		return Null
	}
	sign := func(c int) int { return cmp.Compare(c, 0) }
	f.Fuzz(func(t *testing.T, ta uint8, ia int64, fa float64, sa string, tb uint8, ib int64, fb float64, sb string) {
		a, b := value(ta, ia, fa, sa), value(tb, ib, fb, sb)
		ka, kb := EncodeKey(a), EncodeKey(b)
		want := sign(Compare(a, b))
		if got := sign(bytes.Compare(ka, kb)); got != want {
			t.Fatalf("Compare(%#v, %#v) = %d, keys %x and %x compare %d", a, b, want, ka, kb, got)
		}
		// Row keys after the values: each other's, as any value may be one.
		ea, eb := EncodeKey(a, b), EncodeKey(b, a)
		if got := sign(bytes.Compare(ea, eb)); want != 0 && got != want {
			t.Fatalf("Compare(%#v, %#v) = %d, with row keys %x and %x compare %d", a, b, want, ea, eb, got)
		}
		end := KeySuccessor(ka)
		for _, k := range [][]byte{kb, eb} {
			in := bytes.Compare(ka, k) <= 0 && bytes.Compare(k, end) < 0
			if in != (want == 0) {
				t.Fatalf("Compare(%#v, %#v) = %d, yet key %x in [%x, %x) is %v", a, b, want, k, ka, end, in)
			}
		}
	})
}
