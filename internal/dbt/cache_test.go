package dbt

import (
	"fmt"
	"reflect"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// TestCachedNodeSharesNothingWithItsReply: an inner node decoded from a
// read reply lies in the reply's frame, beside the leaves the reply
// carried. The cache keeps a compact copy of it, so an entry pins none
// of that frame.
func TestCachedNodeSharesNothingWithItsReply(t *testing.T) {
	inner := kv.NewSuper()
	inner.Attrs[AttrHeight] = 1
	inner.LowKey, inner.HighKey = []byte("a"), []byte("z")
	for i := 0; i < 4; i++ {
		inner.ListAdd([]byte(fmt.Sprintf("k%d", i)), encodeChild(kv.MakeOID(0, uint64(i+1))))
	}
	leaf := kv.NewSuper()
	for i := 0; i < 8; i++ {
		leaf.ListAdd([]byte(fmt.Sprintf("k1-%d", i)), []byte("a row of the leaf"))
	}
	var b wire.Buffer
	(&kv.ReadBatchResp{Results: []kv.ReadBatchResult{
		{Found: true, Value: inner}, {Found: true, Value: leaf}, {Found: true, Value: leaf},
	}}).AppendTo(&b)
	frame, err := wire.NewReader(b.Bytes()).Bytes() // the reply body, as the client gets it
	if err != nil {
		t.Fatal(err)
	}
	resp, err := kv.DecodeReadBatchResp(frame)
	if err != nil {
		t.Fatal(err)
	}
	read := resp.Results[0].Value
	if !overlaps(read.Cells[0].Key, frame) {
		t.Fatal("the node as decoded does not lie in the frame: nothing to test")
	}

	c := newNodeCache()
	c.put(1, read)
	got, _ := c.get(1)
	if !got.Equal(inner) {
		t.Fatal("the cached node is not the node read")
	}
	if &got.Cells[0] == &read.Cells[0] {
		t.Error("the cached node shares its cell array with the node as decoded")
	}
	parts := [][]byte{got.LowKey, got.HighKey}
	for _, cell := range got.Cells {
		parts = append(parts, cell.Key, cell.Value)
	}
	for _, p := range parts {
		if overlaps(p, frame) {
			t.Errorf("the cached node's %q lies in the reply frame", p)
		}
	}
}

// overlaps reports whether b, as far as its capacity reaches, shares
// memory with frame, by address.
func overlaps(b, frame []byte) bool {
	if cap(b) == 0 || cap(frame) == 0 {
		return false
	}
	lo, flo := reflect.ValueOf(b).Pointer(), reflect.ValueOf(frame).Pointer()
	return lo < flo+uintptr(cap(frame)) && flo < lo+uintptr(cap(b))
}

// TestPutRouterKeepsSiblingSplitsCells: two writers sharing a handle split
// two leaves under one parent at once, each in a transaction that saw the
// parent without the other's routing cell. Whichever caches the parent
// second keeps the first's cell, so the next write under either new leaf
// still routes to it; a cell outside the parent's fences (a parent split
// since) is not taken over.
func TestPutRouterKeepsSiblingSplitsCells(t *testing.T) {
	parent := func(keys ...string) *kv.Value {
		v := kv.NewSuper()
		v.Attrs[AttrHeight] = 1
		v.LowKey, v.HighKey = []byte("a"), []byte("m")
		for i, k := range keys {
			v.ListAdd([]byte(k), encodeChild(kv.MakeOID(0, uint64(i+1))))
		}
		return v
	}
	c := newNodeCache()
	first := parent("a", "c", "f")
	first.ListAdd([]byte("x"), encodeChild(kv.MakeOID(0, 9))) // outside [a, m)
	c.putRouter(1, first)
	c.putRouter(1, parent("a", "f", "j"))
	got, _ := c.get(1)
	var keys []string
	for _, cell := range got.Cells {
		keys = append(keys, string(cell.Key))
	}
	if fmt.Sprint(keys) != "[a c f j]" {
		t.Errorf("cached parent routes by %v, want [a c f j]", keys)
	}
	grown := parent("a", "f")
	grown.Attrs[AttrHeight] = 2
	c.putRouter(1, grown)
	if got, _ := c.get(1); len(got.Cells) != 2 {
		t.Errorf("a node of another height took over %d cells", len(got.Cells)-2)
	}
}
