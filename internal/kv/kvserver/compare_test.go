package kvserver

import (
	"errors"
	"testing"

	"yesquel/internal/kv"
)

// leafWith commits a supervalue holding keys (each valued "v") at oid.
func leafWith(t *testing.T, s *Store, oid kv.OID, keys ...string) {
	t.Helper()
	v := kv.NewSuper()
	v.LowKey, v.HighKey = []byte("a"), []byte("m")
	for _, k := range keys {
		v.ListAdd([]byte(k), []byte("v"))
	}
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: v}}); err != nil {
		t.Fatal(err)
	}
}

func absent(oid kv.OID, from, to string) *kv.Op {
	return &kv.Op{Kind: kv.OpCmpAbsent, OID: oid, From: []byte(from), To: []byte(to)}
}

func listAdd(oid kv.OID, key string) *kv.Op {
	return &kv.Op{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte(key), Value: []byte("w")}}
}

// TestComparesCheckedAtCommit: a failed compare fails the fast commit or
// the prepare with its CompareError and leaves nothing behind — no
// version, no lock, no conflict counted — while one that holds lets the
// writes beside it commit.
func TestComparesCheckedAtCommit(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	leafWith(t, s, oid, "b")

	var ce *kv.CompareError
	_, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{absent(oid, "b", "b\x00"), listAdd(oid, "b")})
	if !errors.As(err, &ce) || ce.Op != kv.OpCmpAbsent || ce.OID != oid {
		t.Fatalf("claim of a stored key: %v", err)
	}
	_, err = s.Prepare(newTxID(), s.Clock().Now(), []*kv.Op{listAdd(oid, "x"), {Kind: kv.OpCmpFences, OID: oid, From: []byte("x"), To: []byte("x\x00")}})
	if !errors.As(err, &ce) || ce.Op != kv.OpCmpFences {
		t.Fatalf("write outside the fences: %v", err)
	}
	if s.VersionCount(oid) != 1 || s.IsLocked(oid) || s.Stats().Conflicts != 0 {
		t.Fatalf("failed compares left state: versions %d, locked %v, %+v", s.VersionCount(oid), s.IsLocked(oid), s.Stats())
	}
	// The compare checks what the ops before it leave: a MaxCells bound
	// after a ListAdd counts the new cell.
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpCmpPresent, OID: oid, From: []byte("b")}, listAdd(oid, "c"), {Kind: kv.OpCmpMaxCells, OID: oid, Num: 1},
	}); !errors.As(err, &ce) || ce.Op != kv.OpCmpMaxCells {
		t.Fatalf("a leaf grown past its bound: %v", err)
	}
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpCmpPresent, OID: oid, From: []byte("b")}, listAdd(oid, "c"), {Kind: kv.OpCmpMaxCells, OID: oid, Num: 2},
	}); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil || v.NumCells() != 2 {
		t.Fatalf("after the commit: %+v, %v", v, err)
	}
}

// TestCompareSeesCommitsAfterTheSnapshot is the uniqueness check two
// snapshot reads cannot make: two transactions from one snapshot each
// claim a different key under one prefix. Their writes touch different
// cells, so first-committer-wins lets both through; the compare, made at
// the newest version under the lock, stops the second.
func TestCompareSeesCommitsAfterTheSnapshot(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	leafWith(t, s, oid)
	start := s.Clock().Now()
	if _, err := s.FastCommit(newTxID(), start, []*kv.Op{absent(oid, "e", "e\xff"), listAdd(oid, "e1")}); err != nil {
		t.Fatal(err)
	}
	var ce *kv.CompareError
	if _, err := s.FastCommit(newTxID(), start, []*kv.Op{absent(oid, "e", "e\xff"), listAdd(oid, "e2")}); !errors.As(err, &ce) {
		t.Fatalf("second claim of prefix e: %v", err)
	}
}

// TestCompareOnlyParticipant: an object a two-phase transaction only
// compares is locked from prepare to decision, so no write can slip
// between the check and the commit. The vote is replicated like any
// other (a RecPrepare carrying the compare, then a RecDecide), and the
// commit makes no version of the object.
func TestCompareOnlyParticipant(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	leafWith(t, s, oid, "b")
	head := s.ReplSeq()

	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{absent(oid, "c", "d")})
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsLocked(oid) {
		t.Fatal("compared object not locked by the prepare")
	}
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{listAdd(oid, "c")}); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("write to a compared object under its lock: %v", err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	if s.IsLocked(oid) || s.VersionCount(oid) != 1 {
		t.Fatalf("after commit: locked %v, %d versions", s.IsLocked(oid), s.VersionCount(oid))
	}
	recs, err := retainedRecords(s, head)
	if err != nil || len(recs) != 2 || recs[0].Kind != kv.RecPrepare || len(recs[0].Ops) != 1 || recs[1].Kind != kv.RecDecide {
		t.Fatalf("a compare-only vote and its decision streamed as %+v (%v)", recs, err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatalf("duplicate decision: %v", err)
	}
}

// TestComparesStayOutOfCommitRecords: a commit record carries the
// transaction's writes and none of its compares, so the log and the
// mirrors hold for a one-shot commit what they held before compares
// existed; a prepare record carries its compares, which a backup needs
// to hold the same locks.
func TestComparesStayOutOfCommitRecords(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	leafWith(t, s, oid)
	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{absent(oid, "c", "d"), listAdd(oid, "c"), {Kind: kv.OpCmpMaxCells, OID: oid, Num: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{{Kind: kv.OpCmpPresent, OID: oid, From: []byte("c")}, listAdd(oid, "d")}); err != nil {
		t.Fatal(err)
	}
	recs, err := retainedRecords(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	writes, compares := 0, 0
	for seq, r := range recs {
		for _, op := range r.Ops {
			switch {
			case op.Kind.IsCompare() && r.Kind != kv.RecPrepare:
				t.Fatalf("record %d (%v) carries compare %+v", seq, r.Kind, op)
			case op.Kind.IsCompare():
				compares++
			case op.Kind == kv.OpListAdd && r.Kind == kv.RecCommit:
				writes++
			}
		}
	}
	if writes != 1 || compares != 2 {
		t.Fatalf("%d ListAdds in commit records and %d compares in prepare records, want 1 and 2", writes, compares)
	}
	if v, _, err := s.Read(oid, s.Clock().Now()); err != nil || v.NumCells() != 2 {
		t.Fatalf("after both commits: %+v, %v", v, err)
	}
}
