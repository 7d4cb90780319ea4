package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"yesquel/internal/wire"
)

// applyDeepClone is Op.Apply as it was before versions shared structure:
// deep-copy the base, then mutate the copy. It is kept as the oracle the
// copy-on-write Apply is compared against.
func applyDeepClone(op *Op, base *Value) (*Value, error) {
	switch op.Kind {
	case OpPut:
		return op.Value.Clone(), nil
	case OpDelete:
		return nil, nil
	}
	var v *Value
	switch {
	case base == nil:
		v = NewSuper()
	case base.Kind != KindSuper:
		return nil, fmt.Errorf("%w: delta op on plain value", ErrBadRequest)
	default:
		v = base.Clone()
	}
	switch op.Kind {
	case OpListAdd:
		v.ListAdd(op.Cell.Key, op.Cell.Value)
	case OpListDelRange:
		v.ListDelRange(op.From, op.To)
	case OpAttrSet:
		if op.Attr >= NumAttrs {
			return nil, fmt.Errorf("%w: attr index %d", ErrBadRequest, op.Attr)
		}
		v.Attrs[op.Attr] = op.Num
	case OpSetBounds:
		v.LowKey = append([]byte(nil), op.Low...)
		v.HighKey = append([]byte(nil), op.High...)
	default:
		return nil, fmt.Errorf("%w: op kind %d", ErrBadRequest, op.Kind)
	}
	return v, nil
}

func encoded(v *Value) []byte {
	b := wire.NewBuffer(v.EncodedSize())
	EncodeValue(b, v)
	return append([]byte(nil), b.Bytes()...)
}

// randomOp draws an op over a small key space, so sequences hit the
// same cells again and again: replaces, deletes of present and absent
// keys, ranges that are empty, partial and total.
func randomOp(r *rand.Rand) *Op {
	key := func() []byte {
		if r.Intn(12) == 0 {
			return nil
		}
		return []byte(fmt.Sprintf("k%02d", r.Intn(24)))
	}
	switch r.Intn(10) {
	case 0:
		v := NewSuper()
		for i := 0; i < r.Intn(6); i++ {
			v.ListAdd([]byte(fmt.Sprintf("k%02d", r.Intn(24))), []byte{byte(i)})
		}
		return &Op{Kind: OpPut, Value: v}
	case 1:
		return &Op{Kind: OpDelete}
	case 2:
		return &Op{Kind: OpAttrSet, Attr: uint8(r.Intn(NumAttrs + 1)), Num: r.Uint64()}
	case 3:
		return &Op{Kind: OpSetBounds, Low: key(), High: key()}
	case 4, 5:
		from, to := key(), key()
		if from != nil && to != nil && bytes.Compare(from, to) > 0 {
			from, to = to, from
		}
		return &Op{Kind: OpListDelRange, From: from, To: to}
	default:
		val := make([]byte, r.Intn(5))
		r.Read(val)
		k := key()
		if k == nil {
			k = []byte{}
		}
		return &Op{Kind: OpListAdd, Cell: Cell{Key: k, Value: val}}
	}
}

// TestApplyMatchesDeepCloneOracle: over random op sequences the
// copy-on-write Apply produces what the deep-clone implementation does,
// and — the half that sharing puts at risk — no value it was given or
// has already returned ever changes: every value in the chain still
// encodes to the bytes it encoded to when it was produced.
func TestApplyMatchesDeepCloneOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var got, want *Value
		type frozen struct {
			v   *Value
			enc []byte
		}
		var chain []frozen
		for step := 0; step < 60; step++ {
			op := randomOp(r)
			next, err := op.Apply(got)
			wantNext, wantErr := applyDeepClone(op, want)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("seed %d step %d: op %+v: err %v, oracle err %v", seed, step, op, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !next.Equal(wantNext) || !bytes.Equal(encoded(next), encoded(wantNext)) {
				t.Fatalf("seed %d step %d: op %+v:\n got %+v\nwant %+v", seed, step, op, next, wantNext)
			}
			got, want = next, wantNext
			chain = append(chain, frozen{got, encoded(got)})
			for i, f := range chain {
				if !bytes.Equal(encoded(f.v), f.enc) {
					t.Fatalf("seed %d step %d: op %+v changed the value produced at step %d", seed, step, op, i)
				}
			}
		}
	}
}

// TestOverlayMatchesApplyFold: over random op sequences on a random base,
// Overlay returns what folding Apply does (or fails where the fold
// first fails), and neither the base nor any op's value changes under it.
func TestOverlayMatchesApplyFold(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		var base *Value
		for i := r.Intn(4); i > 0; i-- {
			base, _ = randomOp(r).Apply(base)
		}
		ops := make([]*Op, r.Intn(12))
		var puts []*Value
		for i := range ops {
			ops[i] = randomOp(r)
			if ops[i].Kind == OpPut {
				puts = append(puts, ops[i].Value)
			}
		}
		frozen := [][]byte{encoded(base)}
		for _, v := range puts {
			frozen = append(frozen, encoded(v))
		}
		want, wantErr := base, error(nil)
		for _, op := range ops {
			if want, wantErr = op.Apply(want); wantErr != nil {
				break
			}
		}
		got, err := Overlay(base, ops)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: err %v, fold err %v", seed, err, wantErr)
		}
		if err == nil && (!got.Equal(want) || !bytes.Equal(encoded(got), encoded(want))) {
			t.Fatalf("seed %d:\n got %+v\nwant %+v", seed, got, want)
		}
		for i, v := range append([]*Value{base}, puts...) {
			if !bytes.Equal(encoded(v), frozen[i]) {
				t.Fatalf("seed %d: Overlay changed one of its inputs (%d)", seed, i)
			}
		}
	}
}

// TestApplySharesUntouchedCells pins what makes a commit cost its delta:
// the result of a one-cell ListAdd holds the very same key and value
// bytes as its base for every other cell, and the same fence keys.
func TestApplySharesUntouchedCells(t *testing.T) {
	base := leaf64()
	base.LowKey, base.HighKey = []byte("a"), []byte("z")
	op := &Op{Kind: OpListAdd, Cell: Cell{Key: base.Cells[7].Key, Value: []byte("new")}}
	next, err := op.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if &next.Cells[0] == &base.Cells[0] {
		t.Fatal("result shares the Cells header array with its base")
	}
	for i := range base.Cells {
		if i == 7 {
			continue
		}
		if &next.Cells[i].Value[0] != &base.Cells[i].Value[0] || &next.Cells[i].Key[0] != &base.Cells[i].Key[0] {
			t.Fatalf("cell %d was copied", i)
		}
	}
	if &next.LowKey[0] != &base.LowKey[0] || &next.HighKey[0] != &base.HighKey[0] {
		t.Fatal("fence keys were copied")
	}
	if string(base.Cells[7].Value) == "new" {
		t.Fatal("base was modified")
	}
}

// TestSettleGathersTheLeaf: a Layered value shares its base until
// gatherEvery ops have piled up on it; then Settle rebases it, and the
// new base shares no cell with the old one, each value follows its key
// in memory, it stands for the same value, and the versions before it
// still share the old base.
func TestSettleGathersTheLeaf(t *testing.T) {
	base := leaf64()
	chain := []Layered{NewLayered(base)}
	for i := 0; i < gatherEvery; i++ {
		next, err := chain[len(chain)-1].With(&Op{Kind: OpListAdd, Cell: Cell{Key: base.Cells[i].Key, Value: []byte{byte(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next.Settle())
	}
	last, prev := chain[len(chain)-1], chain[len(chain)-2]
	if prev.Pending() != gatherEvery-1 || prev.base != base {
		t.Fatalf("version %d holds %d ops on its own base, want %d on the first", gatherEvery-1, prev.Pending(), gatherEvery-1)
	}
	if last.Pending() != 0 {
		t.Fatalf("%d ops pending after %d steps", last.Pending(), gatherEvery)
	}
	for i, c := range last.base.Cells {
		if &c.Key[0] == &base.Cells[i].Key[0] {
			t.Fatalf("cell %d still shares its key with the old base after %d steps", i, gatherEvery)
		}
		if unsafe.Add(unsafe.Pointer(&c.Key[0]), len(c.Key)) != unsafe.Pointer(&c.Value[0]) {
			t.Fatalf("cell %d: value does not follow its key in memory", i)
		}
	}
	want, _ := (&Op{Kind: OpListAdd, Cell: Cell{Key: base.Cells[gatherEvery-1].Key, Value: []byte{gatherEvery - 1}}}).Apply(prev.Value())
	if !last.Value().Equal(want) {
		t.Fatal("rebasing changed the value")
	}
	if got, _ := prev.window(base.Cells[40].Key, nil, 1); &got[0].Key[0] != &base.Cells[40].Key[0] {
		t.Fatal("the version before the rebase no longer shares an untouched cell with the base")
	}
}

// leaf64 is a DBT leaf half full of rows: 64 cells of a 12-byte key and
// a 100-byte value.
func leaf64() *Value {
	v := NewSuper()
	for i := 0; i < 64; i++ {
		v.ListAdd([]byte(fmt.Sprintf("user%08d", i)), bytes.Repeat([]byte{byte(i)}, 100))
	}
	return v
}

var applySink *Value

// BenchmarkApplyListAdd is the cost of producing the next version of a
// 64-cell leaf from a one-cell update — once per commit per group
// member. The deep-clone oracle runs beside it as the reference.
func BenchmarkApplyListAdd(b *testing.B) {
	base := leaf64()
	op := &Op{Kind: OpListAdd, Cell: Cell{Key: base.Cells[31].Key, Value: bytes.Repeat([]byte{'x'}, 100)}}
	for _, impl := range []struct {
		name  string
		apply func(*Op, *Value) (*Value, error)
	}{
		{"cow", (*Op).Apply},
		{"deepclone", applyDeepClone},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := impl.apply(op, base)
				if err != nil {
					b.Fatal(err)
				}
				applySink = v
			}
		})
	}
}
