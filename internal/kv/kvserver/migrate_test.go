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
	if d := s.Directory(); d.Version != 0 || len(d.Routes) != 1 || s.DirVersion() != 0 {
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
	if v := s.DirVersion(); v != 2 {
		t.Fatalf("DirVersion = %d, want 2", v)
	}
	if !s.InstallDirectory(testDirectory(3), 0) {
		t.Fatal("newer install refused")
	}
}

func TestCheckClientSlotAndRouteLoad(t *testing.T) {
	s := NewStore(nil, Config{})
	owned := kv.MakeOID(0, 1)   // route 0 — ours
	foreign := kv.MakeOID(1, 2) // route 1 — group 1's

	// No directory: everything accepted, nothing counted.
	if err := s.CheckClientSlot(foreign); err != nil {
		t.Fatalf("no-directory check: %v", err)
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
		t.Fatalf("redirect payload %+v", ws)
	}
	loads := s.RouteLoad()
	if len(loads) != 2 || loads[0] != 1 || loads[1] != 0 {
		t.Fatalf("RouteLoad = %v, want [1 0]", loads)
	}
	if got := s.Stats().WrongSlotRejects; got != 1 {
		t.Fatalf("WrongSlotRejects = %d, want 1", got)
	}
}

func TestPrepareFencedByDirectory(t *testing.T) {
	s := NewStore(nil, Config{})
	s.InstallDirectory(testDirectory(1), 0)

	// Owned route: full write path works.
	commitPut(t, s, kv.MakeOID(0, 1), "mine")

	// Foreign route: prepare is rejected with the typed redirect and
	// leaves no residue.
	foreign := kv.MakeOID(1, 1)
	txid := newTxID()
	_, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: foreign, Value: kv.NewPlain([]byte("x"))},
	})
	if !errors.Is(err, kv.ErrWrongSlot) {
		t.Fatalf("foreign prepare: got %v, want ErrWrongSlot", err)
	}
	if s.IsLocked(foreign) {
		t.Fatal("fenced prepare left a lock behind")
	}
}

func TestCommitFencedAfterMidFlightInstall(t *testing.T) {
	// A transaction whose prepare did NOT enter the replication stream
	// (the fast-commit staging path) must be fenced at commit time: its
	// ops would otherwise enter the stream above the fence point.
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(1, 7)
	txid := newTxID()
	proposed, _, err := s.prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("late"))},
	}, false)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}

	// Route 1 moves away between prepare and commit.
	s.InstallDirectory(testDirectory(1), 0)

	err = s.Commit(txid, proposed)
	if !errors.Is(err, kv.ErrWrongSlot) {
		t.Fatalf("fenced commit: got %v, want ErrWrongSlot", err)
	}
	if s.IsLocked(oid) {
		t.Fatal("fenced commit left a lock behind")
	}
	if _, _, err := s.Read(oid, s.Clock().Now()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("fenced commit installed a version: %v", err)
	}
}

func TestReplicatedPrepareExemptFromCommitFence(t *testing.T) {
	// A REPLICATED prepare sits below the fence in the stream; the
	// migration tail carries it and its decision to the destination, so
	// fencing the commit would strand a promised vote. The decision must
	// land.
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(1, 8)
	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("voted"))},
	})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	s.InstallDirectory(testDirectory(1), 0)
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatalf("replicated prepare's commit fenced: %v", err)
	}
}

func TestCaptureIngestRoundTrip(t *testing.T) {
	src := NewStore(nil, Config{})
	moving1 := kv.MakeOID(1, 1) // route 1 of 2
	moving3 := kv.MakeOID(3, 2) // slot 3 → route 1 of 2
	staying := kv.MakeOID(0, 3) // route 0 of 2

	commitPut(t, src, moving1, "a1")
	commitPut(t, src, moving1, "a2") // two versions; only newest must survive digest-wise
	commitPut(t, src, moving3, "b1")
	commitPut(t, src, staying, "keep")

	enc, head, err := src.CaptureRoute(1, 2)
	if err != nil {
		t.Fatalf("CaptureRoute: %v", err)
	}
	if head == 0 {
		t.Fatal("capture head = 0")
	}

	dst := NewStore(nil, Config{})
	srcHead, preps, err := dst.IngestMigratedObjects(enc)
	if err != nil {
		t.Fatalf("IngestMigratedObjects: %v", err)
	}
	if srcHead != head {
		t.Fatalf("ingest head = %d, want %d", srcHead, head)
	}
	if len(preps) != 0 {
		t.Fatalf("unexpected in-flight prepares: %d", len(preps))
	}

	for oid, want := range map[kv.OID]string{moving1: "a2", moving3: "b1"} {
		v, _, err := dst.Read(oid, dst.Clock().Now())
		if err != nil {
			t.Fatalf("dst read %v: %v", oid, err)
		}
		if string(v.Data) != want {
			t.Fatalf("dst read %v = %q, want %q", oid, v.Data, want)
		}
	}
	if _, _, err := dst.Read(staying, dst.Clock().Now()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("non-route object leaked to destination: %v", err)
	}

	if sd, dd := src.SlotDigest(1, 2), dst.SlotDigest(1, 2); sd != dd {
		t.Fatalf("slot digests differ after ingest: src=%x dst=%x", sd, dd)
	}
}

func TestIngestMigratedCommitDedupe(t *testing.T) {
	dst := NewStore(nil, Config{})
	oid := kv.MakeOID(1, 9)
	ts := dst.Clock().Now()
	ops := []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("once"))}}

	if err := dst.IngestMigratedCommit(ts, ops); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	want := dst.SlotDigest(1, 2)
	migrated := dst.Stats().MigratedVersions

	// Replaying the same commit (same timestamp) must be a no-op: the
	// migration tail can deliver a record the bulk capture already
	// carried.
	if err := dst.IngestMigratedCommit(ts, ops); err != nil {
		t.Fatalf("duplicate ingest: %v", err)
	}
	if got := dst.SlotDigest(1, 2); got != want {
		t.Fatalf("duplicate ingest changed the digest: %x vs %x", got, want)
	}
	if got := dst.Stats().MigratedVersions; got != migrated {
		t.Fatalf("duplicate ingest counted: %d vs %d", got, migrated)
	}

	v, _, err := dst.Read(oid, dst.Clock().Now())
	if err != nil || string(v.Data) != "once" {
		t.Fatalf("read after dedupe: %q, %v", v, err)
	}

	// A tombstone ingests as a delete and digests identically on a
	// store that saw it live.
	ts2 := dst.Clock().Now()
	if err := dst.IngestMigratedCommit(ts2, []*kv.Op{{Kind: kv.OpDelete, OID: oid}}); err != nil {
		t.Fatalf("tombstone ingest: %v", err)
	}
	if _, _, err := dst.Read(oid, dst.Clock().Now()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("read after tombstone: %v", err)
	}
}

func TestSlotDigestOrderIndependent(t *testing.T) {
	// The digest is an XOR combine: ingest order must not matter, and
	// per-object history depth must not matter (newest version only).
	mk := func(vals [][3]uint64) *Store {
		s := NewStore(nil, Config{})
		for _, v := range vals {
			oid := kv.MakeOID(uint16(v[0]), v[1])
			err := s.IngestMigratedCommit(clock.Timestamp(v[2]), []*kv.Op{
				{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte{byte(v[2])})},
			})
			if err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		return s
	}
	a := mk([][3]uint64{{1, 1, 10}, {1, 1, 20}, {3, 2, 30}})
	b := mk([][3]uint64{{3, 2, 30}, {1, 1, 20}}) // no stale 10 for (1,1)
	if da, db := a.SlotDigest(1, 2), b.SlotDigest(1, 2); da != db {
		t.Fatalf("digest depends on ingest order/history: %x vs %x", da, db)
	}
	if a.SlotDigest(0, 2) != 0 {
		t.Fatal("empty route digest non-zero")
	}
}

func TestHasPreparedOnRoute(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(1, 4)
	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("p"))},
	})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if !s.HasPreparedOnRoute(1, 2) {
		t.Fatal("prepared tx on route 1 not seen")
	}
	if s.HasPreparedOnRoute(0, 2) {
		t.Fatal("route 0 reported busy")
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if s.HasPreparedOnRoute(1, 2) {
		t.Fatal("route 1 still busy after commit")
	}
}
