package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"yesquel/internal/rpc"
	"yesquel/internal/wire"
)

// randomCompare draws a compare op over the key space randomOp writes.
func randomCompare(r *rand.Rand) *Op {
	key := func() []byte {
		if r.Intn(8) == 0 {
			return nil
		}
		return []byte(fmt.Sprintf("k%02d", r.Intn(24)))
	}
	switch r.Intn(5) {
	case 0:
		return &Op{Kind: OpCmpPresent, From: key()}
	case 1:
		return &Op{Kind: OpCmpAbsent, From: key(), To: key()}
	case 2:
		return &Op{Kind: OpCmpFences, From: key(), To: key()}
	case 3:
		return &Op{Kind: OpCmpAttr, Attr: uint8(r.Intn(NumAttrs)), Num: uint64(r.Intn(3))}
	default:
		return &Op{Kind: OpCmpMaxCells, Num: uint64(r.Intn(8))}
	}
}

// holds is each compare's predicate, written out plainly over the whole
// value: the oracle Apply is checked against.
func holds(op *Op, v *Value) bool {
	if v != nil && v.Kind != KindSuper {
		return false
	}
	var cells []Cell
	if v != nil {
		cells = v.Cells
	}
	in := func(k []byte) bool {
		return (op.From == nil || bytes.Compare(k, op.From) >= 0) && (op.To == nil || bytes.Compare(k, op.To) < 0)
	}
	switch op.Kind {
	case OpCmpPresent:
		for _, c := range cells {
			if bytes.Equal(c.Key, op.From) {
				return true
			}
		}
		return false
	case OpCmpAbsent:
		for _, c := range cells {
			if in(c.Key) {
				return false
			}
		}
		return true
	case OpCmpFences:
		if v == nil {
			return false
		}
		lowOK := v.LowKey == nil || bytes.Compare(v.LowKey, op.From) <= 0
		highOK := v.HighKey == nil || (op.To != nil && bytes.Compare(op.To, v.HighKey) <= 0)
		return lowOK && highOK
	case OpCmpAttr:
		return v != nil && v.Attrs[op.Attr] == op.Num
	case OpCmpMaxCells:
		return uint64(len(cells)) <= op.Num
	}
	panic("not a compare")
}

// TestCompareApplyIsItsPredicate: on random values, a compare's Apply
// returns its base itself when the predicate holds, and a CompareError
// naming its kind and object when it does not; the base never changes.
func TestCompareApplyIsItsPredicate(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		var base *Value
		for i := r.Intn(6); i > 0; i-- {
			if next, err := randomOp(r).Apply(base); err == nil {
				base = next
			}
		}
		if r.Intn(10) == 0 {
			base = NewPlain([]byte("p"))
		}
		frozen := encoded(base)
		for i := 0; i < 20; i++ {
			op := randomCompare(r)
			op.OID = MakeOID(1, uint64(i))
			got, err := op.Apply(base)
			if got != base {
				t.Fatalf("seed %d: %+v returned %+v, not its base", seed, op, got)
			}
			var ce *CompareError
			switch want := holds(op, base); {
			case want && err != nil:
				t.Fatalf("seed %d: %+v on %+v: %v, want it to hold", seed, op, base, err)
			case !want && (!errors.As(err, &ce) || ce.Op != op.Kind || ce.OID != op.OID || !errors.Is(err, ErrCompare)):
				t.Fatalf("seed %d: %+v on %+v: err %v, want its CompareError", seed, op, base, err)
			}
			if !bytes.Equal(encoded(base), frozen) {
				t.Fatalf("seed %d: %+v changed its base", seed, op)
			}
		}
	}
}

// TestCompareSeesEarlierOps: a compare checks the object as the ops
// before it leave it, which is what lets a statement free a key and
// claim it again in one transaction.
func TestCompareSeesEarlierOps(t *testing.T) {
	base := NewSuper()
	base.ListAdd([]byte("k"), []byte("v"))
	ops := []*Op{
		{Kind: OpCmpPresent, From: []byte("k")},
		{Kind: OpListDelRange, From: []byte("k"), To: []byte("k\x00")},
		{Kind: OpCmpAbsent, From: []byte("k"), To: []byte("k\x00")},
		{Kind: OpListAdd, Cell: Cell{Key: []byte("k"), Value: []byte("w")}},
		{Kind: OpCmpMaxCells, Num: 1},
	}
	v := base
	for i, op := range ops {
		next, err := op.Apply(v)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		v = next
	}
	if got, _ := v.ListGet([]byte("k")); string(got) != "w" {
		t.Fatalf("k = %q", got)
	}
	if _, err := (&Op{Kind: OpCmpMaxCells, Num: 0}).Apply(v); err == nil {
		t.Fatal("MaxCells 0 held on a one-cell value")
	}
}

// TestOverlayIgnoresCompares: a read under staged ops sees the writes,
// never the checks — not even one that would fail.
func TestOverlayIgnoresCompares(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var base *Value
		for i := r.Intn(4); i > 0; i-- {
			base, _ = randomOp(r).Apply(base)
		}
		var writes, mixed []*Op
		for i := r.Intn(10); i > 0; i-- {
			op := randomOp(r)
			writes = append(writes, op)
			mixed = append(mixed, op)
			if r.Intn(2) == 0 {
				mixed = append(mixed, randomCompare(r))
			}
		}
		want, wantErr := Overlay(base, writes)
		got, err := Overlay(base, mixed)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: err %v, without compares %v", seed, err, wantErr)
		}
		if err == nil && !got.Equal(want) {
			t.Fatalf("seed %d:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestCompareOpsRoundTrip: every compare kind survives the wire, absent
// and empty keys kept apart, and decodes to an op that checks the same.
func TestCompareOpsRoundTrip(t *testing.T) {
	ops := []*Op{
		{Kind: OpCmpPresent, OID: MakeOID(1, 2), From: []byte("k")},
		{Kind: OpCmpPresent, OID: MakeOID(1, 2), From: []byte{}},
		{Kind: OpCmpAbsent, OID: MakeOID(3, 4), From: []byte("a"), To: []byte("b")},
		{Kind: OpCmpAbsent, OID: MakeOID(3, 4), From: []byte("a")},
		{Kind: OpCmpFences, OID: MakeOID(5, 6), From: []byte{}, To: []byte("m")},
		{Kind: OpCmpFences, OID: MakeOID(5, 6), From: []byte("m")},
		{Kind: OpCmpAttr, OID: MakeOID(7, 8), Attr: 2, Num: 1 << 40},
		{Kind: OpCmpMaxCells, OID: MakeOID(9, 10), Num: 128},
	}
	bases := []*Value{nil, makeTestSuper(), NewSuper()}
	for i, op := range ops {
		b := wire.NewBuffer(64)
		encodeOp(b, op)
		got, err := decodeOp(wire.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got.Kind != op.Kind || got.OID != op.OID || !bytes.Equal(got.From, op.From) || !bytes.Equal(got.To, op.To) ||
			(got.From == nil) != (op.From == nil) || (got.To == nil) != (op.To == nil) || got.Attr != op.Attr || got.Num != op.Num {
			t.Fatalf("op %d: %+v decoded as %+v", i, op, got)
		}
		for _, base := range bases {
			_, err1 := op.Apply(base)
			_, err2 := got.Apply(base)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("op %d: decoded op checks differently: %v vs %v", i, err1, err2)
			}
		}
	}
}

// TestCompareErrorCrossesTheWire: every compare class is one wire code,
// and the failed op's kind and object come back typed; a detail naming a
// write kind is refused, leaving only the sentinel.
func TestCompareErrorCrossesTheWire(t *testing.T) {
	for _, op := range []OpKind{OpCmpPresent, OpCmpAbsent, OpCmpFences, OpCmpAttr, OpCmpMaxCells} {
		ce := &CompareError{Op: op, OID: MakeOID(3, 77)}
		if got := wireCode(ce); got != CodeCompare {
			t.Errorf("%v: code %d, want %d", ce, got, CodeCompare)
		}
		back, ts := crossWire(fmt.Errorf("prepare: %w", ce), 12345)
		var got *CompareError
		if !errors.As(back, &got) || *got != *ce || ts != 12345 {
			t.Errorf("%v decoded as %#v at %d", ce, back, ts)
		}
	}
	var detail wire.Buffer
	code := WireErrorCode(&CompareError{Op: OpListAdd, OID: 5}, 1, &detail)
	back, _ := DecodeError(&rpc.AppError{Code: code, Detail: detail.Bytes()})
	var got *CompareError
	if !errors.Is(back, ErrCompare) || errors.As(back, &got) {
		t.Errorf("a write kind decoded as %#v", back)
	}
}
