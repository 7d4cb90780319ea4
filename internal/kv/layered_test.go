package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randomWindow draws a read window over the key space randomOp writes.
func randomWindow(r *rand.Rand) (from, to []byte, max uint32) {
	key := func() []byte {
		if r.Intn(4) == 0 {
			return nil
		}
		return []byte(fmt.Sprintf("k%02d", r.Intn(26)))
	}
	return key(), key(), uint32(r.Intn(6))
}

func sameCells(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestLayeredMatchesApplyFold: over random op streams, compares mixed in,
// every Layered value stands for what folding Op.Apply over the same ops
// gives — the value, its size and cell count, every window of it, and
// the op that fails — and still does after the values built on it,
// rebases included.
func TestLayeredMatchesApplyFold(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		type kept struct {
			l    Layered
			want *Value
			enc  []byte
		}
		var chain []kept
		got, want := NewLayered(nil), (*Value)(nil)
		for step := 0; step < 80; step++ {
			op := randomOp(r)
			if r.Intn(3) == 0 {
				op = randomCompare(r)
			}
			next, err := got.With(op)
			wantNext, wantErr := op.Apply(want)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("seed %d step %d: op %+v: err %v, fold err %v", seed, step, op, err, wantErr)
			}
			if err != nil {
				continue
			}
			if r.Intn(4) > 0 {
				next = next.Settle()
			} else if r.Intn(4) == 0 {
				next = next.Rebase()
			}
			got, want = next, wantNext
			chain = append(chain, kept{got, want, encoded(want)})
			for i, k := range chain {
				v := k.l.Value()
				if !v.Equal(k.want) || !bytes.Equal(encoded(v), k.enc) {
					t.Fatalf("seed %d step %d: version %d:\n got %+v\nwant %+v", seed, step, i, v, k.want)
				}
				if k.l.EncodedSize() != k.want.EncodedSize() || k.want != nil && k.l.cells != len(k.want.Cells) {
					t.Fatalf("seed %d step %d: version %d: size %d cells %d, want %d and %d", seed, step, i,
						k.l.EncodedSize(), k.l.cells, k.want.EncodedSize(), len(k.want.Cells))
				}
				if k.want == nil || k.want.Kind != KindSuper {
					continue
				}
				from, to, max := randomWindow(r)
				w, _ := k.l.window(from, to, max)
				if ww := k.want.WindowCells(from, to, max); !sameCells(w, ww) {
					t.Fatalf("seed %d step %d: version %d: window [%q, %q) max %d:\n got %q\nwant %q", seed, step, i, from, to, max, w, ww)
				}
			}
		}
	}
}

// TestLayeredWindowCopiesOnlyWhatOpsTouch: a window no pending op
// touches is the base's own cells; one an op touches is a copy the size
// of the window, not of the leaf.
func TestLayeredWindowCopiesOnlyWhatOpsTouch(t *testing.T) {
	base := leaf64()
	l, err := NewLayered(base).With(&Op{Kind: OpListAdd, Cell: Cell{Key: base.Cells[40].Key, Value: []byte("new")}})
	if err != nil {
		t.Fatal(err)
	}
	if w, copied := l.window(base.Cells[10].Key, nil, 4); copied || &w[0] != &base.Cells[10] {
		t.Fatal("a window the op does not touch was copied")
	}
	w, copied := l.window(base.Cells[38].Key, nil, 4)
	if !copied || string(w[2].Value) != "new" || cap(w) > 4+l.Pending()+1 {
		t.Fatalf("window over the op: %q with capacity %d", w, cap(w))
	}
	if n := testing.AllocsPerRun(100, func() { l.window(base.Cells[38].Key, nil, 4) }); n > 1 {
		t.Fatalf("%.0f allocations for a window over one pending op", n)
	}
}
