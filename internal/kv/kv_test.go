package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"yesquel/internal/wire"
)

func TestOIDFields(t *testing.T) {
	o := MakeOID(42, 0xabcdef)
	if o.Slot() != 42 {
		t.Fatalf("Slot = %d", o.Slot())
	}
	if o.Local() != 0xabcdef {
		t.Fatalf("Local = %x", o.Local())
	}
	// Local ids that would spill into the slot bits are masked off.
	o = MakeOID(1, ^uint64(0))
	if o.Slot() != 1 {
		t.Fatalf("Slot after overflow local = %d", o.Slot())
	}
}

// TestOIDGroup: an OID's group is its slot modulo the group count.
func TestOIDGroup(t *testing.T) {
	for _, c := range []struct {
		slot   uint16
		groups int
		want   int
	}{{6, 4, 2}, {3, 4, 3}, {4, 4, 0}, {0xffff, 3, 0}, {7, 1, 0}} {
		if got := MakeOID(c.slot, 99).Group(c.groups); got != c.want {
			t.Errorf("slot %d over %d groups: group %d, want %d", c.slot, c.groups, got, c.want)
		}
	}
}

func TestQuickOIDRoundTrip(t *testing.T) {
	f := func(slot uint16, local uint64) bool {
		local &= (1 << 48) - 1
		o := MakeOID(slot, local)
		return o.Slot() == slot && o.Local() == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueEncodeDecodePlain(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("hello world")} {
		v := NewPlain(data)
		b := wire.NewBuffer(64)
		EncodeValue(b, v)
		got, err := decodeValue(wire.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, v)
		}
	}
}

func TestValueEncodeDecodeNil(t *testing.T) {
	b := wire.NewBuffer(4)
	EncodeValue(b, nil)
	got, err := decodeValue(wire.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("tombstone decoded to %+v", got)
	}
}

func makeTestSuper() *Value {
	v := NewSuper()
	v.Attrs[0] = 7
	v.Attrs[7] = 1 << 60
	v.LowKey = []byte("aaa")
	v.HighKey = []byte("zzz")
	v.ListAdd([]byte("foo"), []byte("1"))
	v.ListAdd([]byte("bar"), []byte("2"))
	v.ListAdd([]byte("qux"), nil)
	return v
}

func TestValueEncodeDecodeSuper(t *testing.T) {
	v := makeTestSuper()
	b := wire.NewBuffer(256)
	EncodeValue(b, v)
	got, err := decodeValue(wire.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestValueEncodeDecodeSuperEmptyVsNilBounds(t *testing.T) {
	v := NewSuper()
	v.LowKey = []byte{} // empty but present
	b := wire.NewBuffer(64)
	EncodeValue(b, v)
	got, err := decodeValue(wire.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LowKey == nil {
		t.Fatal("empty LowKey decoded as nil")
	}
	if got.HighKey != nil {
		t.Fatal("nil HighKey decoded as non-nil")
	}
}

func TestValueClone(t *testing.T) {
	v := makeTestSuper()
	c := v.Clone()
	if !c.Equal(v) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone must not affect the original.
	c.ListAdd([]byte("new"), []byte("x"))
	c.Cells[0].Value[0] = 'Z'
	c.Attrs[0] = 99
	c.LowKey[0] = 'Z'
	want := makeTestSuper()
	if !v.Equal(want) {
		t.Fatal("mutating clone corrupted original")
	}
}

func TestListAddOrderAndReplace(t *testing.T) {
	v := NewSuper()
	keys := []string{"m", "a", "z", "f", "a", "m"}
	for i, k := range keys {
		v.ListAdd([]byte(k), []byte{byte(i)})
	}
	if v.NumCells() != 4 {
		t.Fatalf("NumCells = %d, want 4 (duplicates replace)", v.NumCells())
	}
	for i := 1; i < len(v.Cells); i++ {
		if bytes.Compare(v.Cells[i-1].Key, v.Cells[i].Key) >= 0 {
			t.Fatalf("cells out of order at %d: %q >= %q", i, v.Cells[i-1].Key, v.Cells[i].Key)
		}
	}
	if got, _ := v.ListGet([]byte("a")); got[0] != 4 {
		t.Fatalf("replace did not keep last value: %v", got)
	}
}

func TestListDelRange(t *testing.T) {
	mk := func() *Value {
		v := NewSuper()
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			v.ListAdd([]byte(k), []byte(k))
		}
		return v
	}
	cases := []struct {
		from, to string // "" means nil
		want     []string
	}{
		{"b", "d", []string{"a", "d", "e"}},
		{"", "c", []string{"c", "d", "e"}},
		{"c", "", []string{"a", "b"}},
		{"", "", nil},
		{"x", "y", []string{"a", "b", "c", "d", "e"}},
		{"d", "b", []string{"a", "b", "c", "d", "e"}}, // inverted: no-op
		{"b", "b", []string{"a", "b", "c", "d", "e"}}, // empty range
	}
	for _, tc := range cases {
		v := mk()
		var from, to []byte
		if tc.from != "" {
			from = []byte(tc.from)
		}
		if tc.to != "" {
			to = []byte(tc.to)
		}
		v.ListDelRange(from, to)
		var got []string
		for _, c := range v.Cells {
			got = append(got, string(c.Key))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("DelRange(%q,%q) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestInBounds(t *testing.T) {
	v := NewSuper()
	v.LowKey = []byte("b")
	v.HighKey = []byte("d")
	cases := map[string]bool{"a": false, "b": true, "c": true, "d": false, "e": false}
	for k, want := range cases {
		if got := v.InBounds([]byte(k)); got != want {
			t.Errorf("InBounds(%q) = %v, want %v", k, got, want)
		}
	}
	v.LowKey = nil
	if !v.InBounds([]byte("a")) {
		t.Error("nil LowKey should be unbounded")
	}
	v.HighKey = nil
	if !v.InBounds([]byte("zzzz")) {
		t.Error("nil HighKey should be unbounded")
	}
}

func TestOpApplyPutDelete(t *testing.T) {
	put := &Op{Kind: OpPut, Value: NewPlain([]byte("x"))}
	v, err := put.Apply(nil)
	if err != nil || !v.Equal(NewPlain([]byte("x"))) {
		t.Fatalf("Apply put: %+v %v", v, err)
	}
	del := &Op{Kind: OpDelete}
	v, err = del.Apply(v)
	if err != nil || v != nil {
		t.Fatalf("Apply delete: %+v %v", v, err)
	}
}

func TestOpApplyDeltaOnNilCreatesSuper(t *testing.T) {
	// A blind ListAdd without a prior read must create the supervalue:
	// this is what lets a DBT leaf insert cost zero reads.
	add := &Op{Kind: OpListAdd, Cell: Cell{Key: []byte("k"), Value: []byte("v")}}
	v, err := add.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindSuper || v.NumCells() != 1 {
		t.Fatalf("blind ListAdd: %+v", v)
	}
}

func TestOpApplyDeltaOnPlainFails(t *testing.T) {
	add := &Op{Kind: OpListAdd, Cell: Cell{Key: []byte("k")}}
	if _, err := add.Apply(NewPlain([]byte("x"))); err == nil {
		t.Fatal("delta on plain value must fail")
	}
}

func TestOpApplyDoesNotMutateBase(t *testing.T) {
	base := makeTestSuper()
	snapshot := base.Clone()
	ops := []*Op{
		{Kind: OpListAdd, Cell: Cell{Key: []byte("zzz1"), Value: []byte("v")}},
		{Kind: OpListDelRange, From: []byte("a"), To: []byte("z")},
		{Kind: OpAttrSet, Attr: 0, Num: 123},
		{Kind: OpSetBounds, Low: []byte("x"), High: []byte("y")},
	}
	for _, op := range ops {
		if _, err := op.Apply(base); err != nil {
			t.Fatal(err)
		}
		if !base.Equal(snapshot) {
			t.Fatalf("op %d mutated base", op.Kind)
		}
	}
}

func TestOpApplyAttrOutOfRange(t *testing.T) {
	op := &Op{Kind: OpAttrSet, Attr: NumAttrs, Num: 1}
	if _, err := op.Apply(NewSuper()); err == nil {
		t.Fatal("attr index out of range must fail")
	}
}

func TestOpEncodeDecodeAllKinds(t *testing.T) {
	ops := []*Op{
		{Kind: OpPut, OID: MakeOID(1, 2), Value: makeTestSuper()},
		{Kind: OpPut, OID: MakeOID(1, 2), Value: NewPlain([]byte("p"))},
		{Kind: OpDelete, OID: MakeOID(3, 4)},
		{Kind: OpListAdd, OID: MakeOID(5, 6), Cell: Cell{Key: []byte("k"), Value: []byte("v")}},
		{Kind: OpListDelRange, OID: MakeOID(7, 8), From: []byte("a"), To: []byte("b")},
		{Kind: OpListDelRange, OID: MakeOID(7, 8)}, // unbounded both sides
		{Kind: OpAttrSet, OID: MakeOID(9, 10), Attr: 3, Num: 999},
		{Kind: OpSetBounds, OID: MakeOID(11, 12), Low: []byte("l"), High: []byte("h")},
		{Kind: OpSetBounds, OID: MakeOID(11, 12)},
	}
	for i, op := range ops {
		b := wire.NewBuffer(256)
		encodeOp(b, op)
		got, err := decodeOp(wire.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		// Compare by applying both to the same base.
		base := makeTestSuper()
		v1, err1 := op.Apply(base)
		v2, err2 := got.Apply(base)
		if op.Kind == OpPut && op.Value.Kind == KindPlain {
			base = nil
			v1, err1 = op.Apply(nil)
			v2, err2 = got.Apply(nil)
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("op %d: apply errs %v vs %v", i, err1, err2)
		}
		if err1 == nil && !v1.Equal(v2) {
			t.Fatalf("op %d: decoded op behaves differently", i)
		}
		if got.OID != op.OID {
			t.Fatalf("op %d: OID %v vs %v", i, got.OID, op.OID)
		}
	}
}

func TestQuickListAddSortedUnique(t *testing.T) {
	f := func(keys [][]byte) bool {
		v := NewSuper()
		for _, k := range keys {
			v.ListAdd(k, []byte("x"))
		}
		for i := 1; i < len(v.Cells); i++ {
			if bytes.Compare(v.Cells[i-1].Key, v.Cells[i].Key) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickListDelRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		v := NewSuper()
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			v.ListAdd([]byte{byte(rng.Intn(26) + 'a')}, nil)
		}
		var from, to []byte
		if rng.Intn(4) > 0 {
			from = []byte{byte(rng.Intn(26) + 'a')}
		}
		if rng.Intn(4) > 0 {
			to = []byte{byte(rng.Intn(26) + 'a')}
		}
		var want []Cell
		for _, c := range v.Cells {
			inRange := (from == nil || bytes.Compare(c.Key, from) >= 0) &&
				(to == nil || bytes.Compare(c.Key, to) < 0)
			if !inRange {
				want = append(want, c)
			}
		}
		v.ListDelRange(from, to)
		if len(v.Cells) != len(want) {
			t.Fatalf("trial %d: got %d cells want %d", trial, len(v.Cells), len(want))
		}
		for i := range want {
			if !bytes.Equal(v.Cells[i].Key, want[i].Key) {
				t.Fatalf("trial %d: cell %d mismatch", trial, i)
			}
		}
	}
}

func TestEncodedSizeReasonable(t *testing.T) {
	v := makeTestSuper()
	b := wire.NewBuffer(256)
	EncodeValue(b, v)
	if v.EncodedSize() < b.Len() {
		t.Fatalf("EncodedSize %d < actual %d; must be an upper bound", v.EncodedSize(), b.Len())
	}
}
