package kvserver

import (
	"errors"
	"testing"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

func TestCheckClientSlot(t *testing.T) {
	s := NewStore(nil, Config{})
	owned := kv.MakeOID(4, 1)   // slot 4: group 1 of 3
	foreign := kv.MakeOID(5, 2) // slot 5: group 2 of 3

	// A store never told its group serves every slot.
	if err := s.CheckClientSlot(foreign); err != nil {
		t.Fatalf("a store with no group refused a slot: %v", err)
	}

	s.SetGroup(1, 3)
	if err := s.CheckClientSlot(owned); err != nil {
		t.Fatalf("owned slot rejected: %v", err)
	}
	err := s.CheckClientSlot(foreign)
	var ws *kv.WrongSlotError
	if !errors.As(err, &ws) {
		t.Fatalf("foreign slot: got %v, want WrongSlotError", err)
	}
	if *ws != (kv.WrongSlotError{Group: 2, Groups: 3}) {
		t.Fatalf("rejection payload %+v", ws)
	}
	if got := s.Stats().WrongSlotRejects; got != 1 {
		t.Fatalf("WrongSlotRejects = %d, want 1", got)
	}
}

func TestSlotDigestOrderIndependent(t *testing.T) {
	// The digest is an XOR combine: the order objects were written in
	// must not matter, and neither may per-object history depth (newest
	// version only).
	mk := func(vals [][3]uint64) *Store {
		s := NewStore(nil, Config{})
		req := &kv.MirrorBatchReq{From: s.ReplSeq(), Epoch: s.Epoch()}
		for i, v := range vals {
			req.Recs = append(req.Recs, kv.ReplRecord{Kind: kv.RecCommit, Epoch: s.Epoch(), TxID: uint64(i + 1), TS: clock.Timestamp(v[2]),
				Ops: []*kv.Op{{Kind: kv.OpPut, OID: kv.MakeOID(uint16(v[0]), v[1]), Value: kv.NewPlain([]byte{byte(v[2])})}}})
		}
		if err := s.ApplyMirroredBatch(req); err != nil {
			t.Fatalf("apply: %v", err)
		}
		return s
	}
	a := mk([][3]uint64{{1, 1, 10}, {1, 1, 20}, {3, 2, 30}})
	b := mk([][3]uint64{{3, 2, 30}, {1, 1, 20}}) // no stale 10 for (1,1)
	if da, db := a.SlotDigest(1, 2), b.SlotDigest(1, 2); da != db {
		t.Fatalf("digest depends on write order/history: %x vs %x", da, db)
	}
	if a.SlotDigest(1, 2) == 0 {
		t.Fatal("route 1's digest is zero")
	}
	if a.SlotDigest(0, 2) != 0 {
		t.Fatal("empty route digest non-zero")
	}
}
