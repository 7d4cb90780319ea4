package kvserver

import (
	"errors"
	"testing"

	"yesquel/internal/kv"
)

// The tests here pin down the cell-granularity conflict rules: delta
// operations on disjoint cells of one supervalue commute (both commit);
// overlapping or structural writes conflict (first committer wins).

func prepCommit(t *testing.T, s *Store, start kv.Timestamp, ops []*kv.Op) error {
	t.Helper()
	tx := newTxID()
	p, err := s.Prepare(tx, start, ops)
	if err != nil {
		return err
	}
	return s.Commit(tx, p)
}

func TestConcurrentDisjointListAddsCommute(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewSuper()}}); err != nil {
		t.Fatal(err)
	}
	// Two transactions with the same snapshot insert different cells.
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()
	if err := prepCommit(t, s, start1, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("a"), Value: []byte("1")}}}); err != nil {
		t.Fatalf("first delta: %v", err)
	}
	if err := prepCommit(t, s, start2, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("b"), Value: []byte("2")}}}); err != nil {
		t.Fatalf("second disjoint delta should commute: %v", err)
	}
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if v.NumCells() != 2 {
		t.Fatalf("merged cells = %d, want 2", v.NumCells())
	}
}

func TestConcurrentSameCellConflicts(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewSuper()}}); err != nil {
		t.Fatal(err)
	}
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()
	if err := prepCommit(t, s, start1, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("k"), Value: []byte("1")}}}); err != nil {
		t.Fatal(err)
	}
	err := prepCommit(t, s, start2, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("k"), Value: []byte("2")}}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("same-cell concurrent write: got %v, want conflict", err)
	}
}

func TestDeltaVsSingleKeyDeleteConflicts(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	base := kv.NewSuper()
	base.ListAdd([]byte("k"), []byte("v"))
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: base}}); err != nil {
		t.Fatal(err)
	}
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()
	// tx1 deletes cell k (single-key DelRange), tx2 updates it.
	if err := prepCommit(t, s, start1, []*kv.Op{{Kind: kv.OpListDelRange, OID: oid, From: []byte("k"), To: []byte("k\x00")}}); err != nil {
		t.Fatal(err)
	}
	err := prepCommit(t, s, start2, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("k"), Value: []byte("new")}}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("update vs delete of same cell: got %v, want conflict", err)
	}
}

func TestDeltaVsStructuralConflicts(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	base := kv.NewSuper()
	for _, k := range []string{"a", "b", "c", "d"} {
		base.ListAdd([]byte(k), []byte(k))
	}
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: base}}); err != nil {
		t.Fatal(err)
	}
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()
	// tx1 performs a split-like structural change (range delete +
	// fence change); tx2 inserts a cell that is not even in the moved
	// range. They must still conflict: the fence moved.
	splitOps := []*kv.Op{
		{Kind: kv.OpListDelRange, OID: oid, From: []byte("c"), To: nil},
		{Kind: kv.OpSetBounds, OID: oid, Low: []byte{}, High: []byte("c")},
	}
	if err := prepCommit(t, s, start1, splitOps); err != nil {
		t.Fatal(err)
	}
	err := prepCommit(t, s, start2, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("a2"), Value: []byte("x")}}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("delta vs structural: got %v, want conflict", err)
	}
	// And the mirror order: structural after delta.
	start3 := s.Clock().Now()
	start4 := s.Clock().Now()
	if err := prepCommit(t, s, start3, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("a3"), Value: []byte("x")}}}); err != nil {
		t.Fatal(err)
	}
	err = prepCommit(t, s, start4, []*kv.Op{
		{Kind: kv.OpListDelRange, OID: oid, From: []byte("b"), To: nil},
		{Kind: kv.OpSetBounds, OID: oid, Low: []byte{}, High: []byte("b")},
	})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("structural vs delta: got %v, want conflict", err)
	}
}

func TestAttrSetConflictsOnSameSlotOnly(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewSuper()}}); err != nil {
		t.Fatal(err)
	}
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()
	start3 := s.Clock().Now()
	if err := prepCommit(t, s, start1, []*kv.Op{{Kind: kv.OpAttrSet, OID: oid, Attr: 0, Num: 1}}); err != nil {
		t.Fatal(err)
	}
	// Different attribute slot: commutes.
	if err := prepCommit(t, s, start2, []*kv.Op{{Kind: kv.OpAttrSet, OID: oid, Attr: 1, Num: 2}}); err != nil {
		t.Fatalf("disjoint attrs should commute: %v", err)
	}
	// Same slot: conflicts.
	err := prepCommit(t, s, start3, []*kv.Op{{Kind: kv.OpAttrSet, OID: oid, Attr: 0, Num: 3}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("same attr slot: got %v, want conflict", err)
	}
}

func TestDeltaVsTombstoneConflicts(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewSuper()}}); err != nil {
		t.Fatal(err)
	}
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()
	if err := prepCommit(t, s, start1, []*kv.Op{{Kind: kv.OpDelete, OID: oid}}); err != nil {
		t.Fatal(err)
	}
	// A concurrent delta must not silently resurrect the object.
	err := prepCommit(t, s, start2, []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("k")}}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("delta vs tombstone: got %v, want conflict", err)
	}
}

func TestSweepTombstones(t *testing.T) {
	s := NewStore(nil, Config{RetentionMillis: 1})
	oid := kv.MakeOID(0, 1)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("x"))}}); err != nil {
		t.Fatal(err)
	}
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpDelete, OID: oid}}); err != nil {
		t.Fatal(err)
	}
	// Tombstone survives the delete commit...
	if s.NumObjects() != 1 {
		t.Fatalf("objects after delete = %d", s.NumObjects())
	}
	// ...and the member's own clock running on does not sweep it: the
	// horizon follows the commit timestamps in the stream, so that every
	// member of a group sweeps alike.
	s.Clock().Observe(makeFutureTS(s))
	if n := s.SweepTombstones(); n != 0 {
		t.Fatalf("swept %d on the local clock alone, want 0", n)
	}
	// A commit a retention later moves the horizon past the tombstone.
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: kv.MakeOID(0, 2), Value: kv.NewPlain([]byte("y"))}}); err != nil {
		t.Fatal(err)
	}
	if n := s.SweepTombstones(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if s.NumObjects() != 1 {
		t.Fatalf("objects after sweep = %d, want the one live object", s.NumObjects())
	}
}

func makeFutureTS(s *Store) kv.Timestamp {
	cur := s.Clock().Last()
	return kv.Timestamp(uint64(cur) + (1000 << 16)) // +1000ms in wall bits
}

func TestConcurrentInsertsManyWorkersOneLeaf(t *testing.T) {
	// Throughput-critical property: N workers inserting distinct cells
	// into one object with snapshot reuse should (almost) never abort.
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewSuper()}}); err != nil {
		t.Fatal(err)
	}
	// Phase 1: a shared stale snapshot still commutes as long as the
	// version chain stays within the MaxVersions metadata window.
	start := s.Clock().Now()
	for i := 0; i < 50; i++ {
		key := []byte{0, byte(i)}
		ops := []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: key, Value: []byte("v")}}}
		if err := prepCommit(t, s, start, ops); err != nil {
			t.Fatalf("insert %d with stale snapshot: %v", i, err)
		}
	}
	// Phase 2: fresh snapshots never conflict regardless of chain
	// length (the common case: each insert begins a new transaction).
	for i := 0; i < 200; i++ {
		key := []byte{1, byte(i / 16), byte(i % 16)}
		ops := []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: key, Value: []byte("v")}}}
		if err := prepCommit(t, s, s.Clock().Now(), ops); err != nil {
			t.Fatalf("fresh-snapshot insert %d: %v", i, err)
		}
	}
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if v.NumCells() != 250 {
		t.Fatalf("cells = %d, want 250", v.NumCells())
	}
}
