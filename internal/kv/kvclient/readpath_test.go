package kvclient_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// TestEveryReadEntryPointSeesTheSameBytes: Tx.Read, Tx.ReadPart, a
// one-item and an eight-item Tx.ReadBatch are one read path behind four
// signatures, so for every kind of object, every kind of staged write
// and every kind of window they must agree on Found, on the cells and on
// the cell count.
func TestEveryReadEntryPointSeesTheSameBytes(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()

	// One object of each kind on slot 0, and seven more supervalues
	// spread over both slots to fill the eight-item batches.
	seed := c.Begin()
	plainOID, superOID, absentOID := c.NewOID(0), c.NewOID(0), c.NewOID(0)
	seed.Put(plainOID, kv.NewPlain([]byte("plain")))
	sv := kv.NewSuper()
	sv.LowKey, sv.HighKey = []byte("k"), []byte("l")
	for i := 0; i < 10; i++ {
		sv.ListAdd([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
	}
	seed.Put(superOID, sv)
	var fillers []kv.ReadBatchItem
	for i := 0; i < 7; i++ {
		oid := c.NewOID(uint16(i % 2))
		seed.Put(oid, sv)
		fillers = append(fillers, kv.ReadBatchItem{OID: oid, Part: true, From: []byte("k04"), Max: 2})
	}
	if err := seed.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	objects := []struct {
		name string
		oid  kv.OID
	}{{"plain", plainOID}, {"super", superOID}, {"absent", absentOID}}
	stagings := []struct {
		name  string
		stage func(tx *kvclient.Tx, oid kv.OID)
	}{
		{"clean", func(*kvclient.Tx, kv.OID) {}},
		{"deltas", func(tx *kvclient.Tx, oid kv.OID) {
			tx.ListAdd(oid, []byte("k05"), []byte("replaced"))
			tx.ListAdd(oid, []byte("k055"), []byte("inserted"))
			tx.ListDelRange(oid, []byte("k03"), []byte("k03\x00"))
			tx.ListAdd(oid, []byte("k99"), []byte("beyond any window"))
		}},
		{"put then deltas", func(tx *kvclient.Tx, oid kv.OID) {
			put := kv.NewSuper()
			for i := 0; i < 8; i++ {
				put.ListAdd([]byte(fmt.Sprintf("k%02d", i)), []byte("put"))
			}
			tx.ListAdd(oid, []byte("k00"), []byte("buried under the put"))
			tx.Put(oid, put)
			tx.ListAdd(oid, []byte("k055"), []byte("inserted"))
			tx.ListDelRange(oid, []byte("k04"), []byte("k04\x00"))
		}},
		{"delete", func(tx *kvclient.Tx, oid kv.OID) { tx.Delete(oid) }},
	}
	windows := []struct {
		name     string
		from, to []byte
		max      uint32
	}{
		{"unbounded", nil, nil, 0},
		{"point", []byte("k05"), []byte("k05\x00"), 2},
		{"capped", []byte("k03"), nil, 3},
	}

	// same reports whether a batch result is the answer ReadPart gave.
	same := func(res kv.ReadBatchResult, found bool, val *kv.Value, total int) bool {
		if res.Found != found {
			return false
		}
		return !found || (res.Value.Equal(val) && int(res.Total) == total)
	}
	for _, obj := range objects {
		for _, st := range stagings {
			for _, win := range windows {
				t.Run(obj.name+"/"+st.name+"/"+win.name, func(t *testing.T) {
					tx := c.Begin()
					defer tx.Abort()
					st.stage(tx, obj.oid)
					item := kv.ReadBatchItem{OID: obj.oid, Part: true, From: win.from, To: win.to, Max: win.max}
					eight := append(append(append([]kv.ReadBatchItem(nil), fillers[:3]...), item), fillers[3:]...)

					part, total, err := tx.ReadPart(ctx, obj.oid, win.from, win.to, win.max)
					whole, werr := tx.Read(ctx, obj.oid)
					res1, err1 := tx.ReadBatch(ctx, []kv.ReadBatchItem{item})
					res8, err8 := tx.ReadBatch(ctx, eight)
					if err != nil && !errors.Is(err, kv.ErrNotFound) {
						// A delta staged on a plain value: every entry point
						// refuses the same way.
						for _, e := range []error{werr, err1, err8} {
							if !errors.Is(e, kv.ErrBadRequest) {
								t.Fatalf("ReadPart: %v, but another entry point: %v", err, e)
							}
						}
						return
					}
					found := err == nil
					if err1 != nil || err8 != nil || !same(res1[0], found, part, total) || !same(res8[3], found, part, total) {
						t.Fatalf("ReadPart %+v/%d (%v)\nbatch of one %+v (%v)\nbatch of eight %+v (%v)",
							part, total, err, res1, err1, res8, err8)
					}
					for i, res := range res8 {
						if i != 3 && (!res.Found || res.Value.NumCells() != 2) {
							t.Fatalf("batch of eight, filler %d: %+v", i, res)
						}
					}
					if (werr == nil) != found || (werr != nil && !errors.Is(werr, kv.ErrNotFound)) {
						t.Fatalf("Read: %v, ReadPart: %v", werr, err)
					}
					if found {
						checkWindowOf(t, whole, part, total, win.from, win.to, win.max, st.name == "deltas")
					}
					if win.name == "unbounded" {
						// An item without Part is the whole object whatever
						// window it carries.
						res, err := tx.ReadBatch(ctx, []kv.ReadBatchItem{{OID: obj.oid}, {OID: obj.oid, From: []byte("k05"), Max: 1}})
						if err != nil || !same(res[0], found, part, total) || !same(res[1], found, part, total) {
							t.Fatalf("Part-less items: %+v (%v), want %+v/%d", res, err, part, total)
						}
					}
				})
			}
		}
	}
}

// checkWindowOf asserts part (with its total) is the window [from, to)
// capped at max of whole, the object Tx.Read returned. Staged deltas over
// a fetched window (overlaid) land wherever they fall and may delete the
// floor cell, so there the window's cells from the key on must all be
// present and right, extra ones must be cells of whole, and the total is
// an upper bound; everywhere else the match is exact.
func checkWindowOf(t *testing.T, whole, part *kv.Value, total int, from, to []byte, max uint32, overlaid bool) {
	t.Helper()
	if whole.Kind != kv.KindSuper {
		if !part.Equal(whole) {
			t.Fatalf("plain value: ReadPart %+v, Read %+v", part, whole)
		}
		return
	}
	unbounded := from == nil && to == nil && max == 0
	if part.Attrs != whole.Attrs || !bytes.Equal(part.LowKey, whole.LowKey) || !bytes.Equal(part.HighKey, whole.HighKey) {
		t.Fatalf("window header %+v differs from the object's %+v", part, whole)
	}
	want := whole.WindowCells(from, to, max)
	if !overlaid || unbounded {
		if total != whole.NumCells() || len(part.Cells) != len(want) {
			t.Fatalf("window of %d cells, total %d; want %d cells of %d", len(part.Cells), total, len(want), whole.NumCells())
		}
	} else if total < whole.NumCells() {
		t.Fatalf("total %d is below the object's %d cells", total, whole.NumCells())
	}
	for _, cell := range want {
		if overlaid && bytes.Compare(cell.Key, from) < 0 {
			continue
		}
		if v, ok := part.ListGet(cell.Key); !ok || !bytes.Equal(v, cell.Value) {
			t.Fatalf("window lacks %q=%q (has %q, %v)", cell.Key, cell.Value, v, ok)
		}
	}
	for _, cell := range part.Cells {
		if v, ok := whole.ListGet(cell.Key); !ok || !bytes.Equal(v, cell.Value) {
			t.Fatalf("window holds %q=%q, the object %q (%v)", cell.Key, cell.Value, v, ok)
		}
	}
}
