package kvserver

import (
	"errors"
	"testing"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// testDirectory builds a two-route directory: route 0 owned by group 0,
// route 1 owned by group 1.
func testDirectory(version uint64) *kv.Directory {
	return &kv.Directory{
		Version: version,
		Routes:  []uint32{0, 1},
		Groups:  [][]string{{"g0:1"}, {"g1:1"}},
	}
}

func TestInstallDirectoryVersionGate(t *testing.T) {
	s := NewStore(nil, Config{})
	if d := s.Directory(); d.Version != 0 || len(d.Routes) != 1 {
		t.Fatalf("fresh store's directory is %+v, want the version-0 one-route identity", d)
	}
	if !s.InstallDirectory(testDirectory(2), 0) {
		t.Fatal("first install refused")
	}
	if s.InstallDirectory(testDirectory(1), 0) {
		t.Fatal("older install accepted")
	}
	if s.InstallDirectory(testDirectory(2), 0) {
		t.Fatal("equal-version install accepted")
	}
	if v := s.Directory().Version; v != 2 {
		t.Fatalf("directory version = %d, want 2", v)
	}
	if !s.InstallDirectory(testDirectory(3), 0) {
		t.Fatal("newer install refused")
	}
}

func TestCheckClientSlot(t *testing.T) {
	s := NewStore(nil, Config{})
	owned := kv.MakeOID(0, 1)   // route 0 — ours
	foreign := kv.MakeOID(1, 2) // route 1 — group 1's

	// The birth directory: one route, ours, so everything is accepted.
	if err := s.CheckClientSlot(foreign); err != nil {
		t.Fatalf("birth-directory check: %v", err)
	}

	s.InstallDirectory(testDirectory(1), 0)
	if err := s.CheckClientSlot(owned); err != nil {
		t.Fatalf("owned slot rejected: %v", err)
	}
	err := s.CheckClientSlot(foreign)
	var ws *kv.WrongSlotError
	if !errors.As(err, &ws) {
		t.Fatalf("foreign slot: got %v, want WrongSlotError", err)
	}
	if ws.Version != 1 || ws.Route != 1 || ws.Group != 1 || len(ws.Members) != 1 || ws.Members[0] != "g1:1" {
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
