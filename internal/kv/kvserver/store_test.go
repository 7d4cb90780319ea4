package kvserver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

var nextTxID atomic.Uint64

func newTxID() uint64 { return nextTxID.Add(1) }

// commitPut writes a plain value through the full prepare/commit path
// and returns the commit timestamp.
func commitPut(t *testing.T, s *Store, oid kv.OID, data string) clock.Timestamp {
	t.Helper()
	txid := newTxID()
	start := s.Clock().Now()
	ops := []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte(data))}}
	proposed, err := s.Prepare(txid, start, ops)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return proposed
}

func TestPutReadVisibility(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)

	before := s.Clock().Now()
	commitTS := commitPut(t, s, oid, "v1")

	// A snapshot taken before the commit must not see it.
	if _, _, err := s.Read(oid, before); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("read before commit: %v", err)
	}
	// A snapshot at/after the commit sees it.
	v, ver, err := s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatalf("read after commit: %v", err)
	}
	if string(v.Data) != "v1" || ver != commitTS {
		t.Fatalf("got %q at %d, want v1 at %d", v.Data, ver, commitTS)
	}
}

func TestSnapshotStability(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "v1")
	snap := s.Clock().Now()
	commitPut(t, s, oid, "v2")

	// The old snapshot still reads v1 (MVCC).
	v, _, err := s.Read(oid, snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "v1" {
		t.Fatalf("snapshot read %q, want v1", v.Data)
	}
	// A fresh snapshot reads v2.
	v, _, err = s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "v2" {
		t.Fatalf("fresh read %q, want v2", v.Data)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "base")

	// Two transactions snapshot the same state and both write oid.
	start1 := s.Clock().Now()
	start2 := s.Clock().Now()

	tx1 := newTxID()
	p1, err := s.Prepare(tx1, start1, []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("tx1"))}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(tx1, p1); err != nil {
		t.Fatal(err)
	}

	// tx2 must now fail prepare: a version newer than its snapshot exists.
	tx2 := newTxID()
	_, err = s.Prepare(tx2, start2, []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("tx2"))}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("second committer: got %v, want ErrConflict", err)
	}
	if s.IsLocked(oid) {
		t.Fatal("failed prepare left a lock behind")
	}
}

func TestLockConflict(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)

	tx1 := newTxID()
	if _, err := s.Prepare(tx1, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("a"))}}); err != nil {
		t.Fatal(err)
	}
	// A second prepare on the same object conflicts immediately.
	tx2 := newTxID()
	_, err := s.Prepare(tx2, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("b"))}})
	if !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("want lock conflict, got %v", err)
	}
	s.Abort(tx1)
	if s.IsLocked(oid) {
		t.Fatal("abort did not release the lock")
	}
	// After the abort, tx3 can write.
	commitPut(t, s, oid, "c")
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "keep")

	tx := newTxID()
	if _, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("discard"))}}); err != nil {
		t.Fatal(err)
	}
	s.Abort(tx)
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "keep" {
		t.Fatalf("aborted write became visible: %q", v.Data)
	}
	// Abort is idempotent.
	s.Abort(tx)
}

func TestReadWaitsForPreparedTx(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)

	tx := newTxID()
	proposed, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("pending"))}})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot above the proposed timestamp could be affected by the
	// pending commit, so the read must block until resolution.
	snap := s.Clock().Now()
	if snap < proposed {
		t.Fatalf("test setup: snap %d < proposed %d", snap, proposed)
	}
	readDone := make(chan error, 1)
	go func() {
		_, _, err := s.Read(oid, snap)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("read returned %v before the transaction resolved", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Commit(tx, proposed); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("read after commit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not unblock after commit")
	}
}

func TestReadBelowProposedDoesNotWait(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "old")
	snap := s.Clock().Now()

	tx := newTxID()
	if _, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("new"))}}); err != nil {
		t.Fatal(err)
	}
	defer s.Abort(tx)
	// snap predates the prepare's proposed timestamp: must not block.
	done := make(chan struct{})
	go func() {
		v, _, err := s.Read(oid, snap)
		if err != nil || string(v.Data) != "old" {
			t.Errorf("read below proposed: %v %v", v, err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("read below proposed timestamp blocked")
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "v")
	snap := s.Clock().Now()

	tx := newTxID()
	p, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpDelete, OID: oid}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(tx, p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Read(oid, s.Clock().Now()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
	// The old snapshot still sees the value.
	if v, _, err := s.Read(oid, snap); err != nil || string(v.Data) != "v" {
		t.Fatalf("old snapshot after delete: %v %v", v, err)
	}
}

func TestFastCommit(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	tx := newTxID()
	start := s.Clock().Now()
	commitTS, err := s.FastCommit(tx, start, []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("fast"))}})
	if err != nil {
		t.Fatal(err)
	}
	if commitTS <= start {
		t.Fatalf("commitTS %d <= start %d", commitTS, start)
	}
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil || string(v.Data) != "fast" {
		t.Fatalf("read after fast commit: %v %v", v, err)
	}
}

func TestDeltaOpsThroughCommit(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 9)

	// Blind ListAdds on an absent object create the supervalue.
	tx := newTxID()
	ops := []*kv.Op{
		{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("b"), Value: []byte("2")}},
		{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("a"), Value: []byte("1")}},
		{Kind: kv.OpAttrSet, OID: oid, Attr: 0, Num: 42},
	}
	if _, err := s.FastCommit(tx, s.Clock().Now(), ops); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != kv.KindSuper || v.NumCells() != 2 || v.Attrs[0] != 42 {
		t.Fatalf("supervalue after deltas: %+v", v)
	}
	if val, ok := v.ListGet([]byte("a")); !ok || string(val) != "1" {
		t.Fatalf("cell a: %q %v", val, ok)
	}

	// Delta on top of the existing supervalue; old snapshot unaffected.
	snap := s.Clock().Now()
	tx2 := newTxID()
	ops2 := []*kv.Op{{Kind: kv.OpListDelRange, OID: oid, From: []byte("a"), To: []byte("b")}}
	if _, err := s.FastCommit(tx2, s.Clock().Now(), ops2); err != nil {
		t.Fatal(err)
	}
	vNew, _, _ := s.Read(oid, s.Clock().Now())
	if vNew.NumCells() != 1 {
		t.Fatalf("after DelRange: %d cells", vNew.NumCells())
	}
	vOld, _, _ := s.Read(oid, snap)
	if vOld.NumCells() != 2 {
		t.Fatalf("old snapshot mutated: %d cells", vOld.NumCells())
	}
}

func TestPrepareRejectsBadDelta(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "plain")
	tx := newTxID()
	_, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte("k")}}})
	if !errors.Is(err, kv.ErrBadRequest) {
		t.Fatalf("delta on plain at prepare: %v", err)
	}
	if s.IsLocked(oid) {
		t.Fatal("rejected prepare left lock")
	}
}

func TestGCTrimsVersions(t *testing.T) {
	s := NewStore(nil, Config{MaxVersions: 4, RetentionMillis: 1})
	oid := kv.MakeOID(0, 1)
	var first clock.Timestamp
	for i := 0; i < 20; i++ {
		ts := commitPut(t, s, oid, fmt.Sprintf("v%d", i))
		if i == 0 {
			first = ts
		}
	}
	if n := s.VersionCount(oid); n > 4 {
		t.Fatalf("version chain not trimmed: %d", n)
	}
	// A snapshot whose version was collected is told so — the object
	// existed there, so "not found" would be a wrong answer.
	if _, _, err := s.Read(oid, first); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("read below the GC floor: got %v, want ErrConflict", err)
	}
	// Latest version must survive GC.
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil || string(v.Data) != "v19" {
		t.Fatalf("latest after GC: %v %v", v, err)
	}
	if s.Stats().GCVersions == 0 {
		t.Fatal("GC counter not incremented")
	}
}

func TestCommitUnknownTx(t *testing.T) {
	s := NewStore(nil, Config{})
	if err := s.Commit(12345678, s.Clock().Now()); err == nil {
		t.Fatal("commit of unknown tx must fail")
	}
}

func TestDuplicatePrepare(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	tx := newTxID()
	if _, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain(nil)}}); err != nil {
		t.Fatal(err)
	}
	oid2 := kv.MakeOID(0, 2)
	if _, err := s.Prepare(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid2, Value: kv.NewPlain(nil)}}); err == nil {
		t.Fatal("duplicate prepare must fail")
	}
	s.Abort(tx)
}

func TestMultiObjectAtomicity(t *testing.T) {
	s := NewStore(nil, Config{})
	a, b := kv.MakeOID(0, 1), kv.MakeOID(0, 2)
	tx := newTxID()
	ops := []*kv.Op{
		{Kind: kv.OpPut, OID: a, Value: kv.NewPlain([]byte("A"))},
		{Kind: kv.OpPut, OID: b, Value: kv.NewPlain([]byte("B"))},
	}
	p, err := s.Prepare(tx, s.Clock().Now(), ops)
	if err != nil {
		t.Fatal(err)
	}
	// Before commit, neither is visible.
	if _, _, err := s.Read(a, p-1); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("a visible before commit: %v", err)
	}
	if err := s.Commit(tx, p); err != nil {
		t.Fatal(err)
	}
	// After commit, both appear at the same timestamp.
	va, ta, _ := s.Read(a, s.Clock().Now())
	vb, tb, _ := s.Read(b, s.Clock().Now())
	if string(va.Data) != "A" || string(vb.Data) != "B" {
		t.Fatalf("values: %q %q", va.Data, vb.Data)
	}
	if ta != tb || ta != p {
		t.Fatalf("commit timestamps differ: %d %d (want %d)", ta, tb, p)
	}
}

// TestConcurrentIncrementsNoLostUpdates exercises SI's write-write
// conflict detection: concurrent read-modify-write transactions with
// retry must not lose updates.
func TestConcurrentIncrementsNoLostUpdates(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	{
		tx := newTxID()
		v := kv.NewSuper()
		if _, err := s.FastCommit(tx, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: v}}); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					start := s.Clock().Now()
					cur, _, err := s.Read(oid, start)
					if err != nil {
						continue
					}
					op := &kv.Op{Kind: kv.OpAttrSet, OID: oid, Attr: 0, Num: cur.Attrs[0] + 1}
					if _, err := s.FastCommit(newTxID(), start, []*kv.Op{op}); err == nil {
						break
					}
					// conflict: retry with a fresh snapshot
				}
			}
		}()
	}
	wg.Wait()
	v, _, err := s.Read(oid, s.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if v.Attrs[0] != workers*perWorker {
		t.Fatalf("lost updates: counter = %d, want %d", v.Attrs[0], workers*perWorker)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "x")
	s.Read(oid, s.Clock().Now())
	st := s.Stats()
	if st.Reads != 1 || st.Prepares != 1 || st.Commits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCommitFastCommitCountersDisjoint pins the counter fix: one
// logical commit increments exactly one of Commits / FastCommits, so
// their sum is the total number of committed transactions; and a fast
// commit is no prepare either, so Prepares+Commits+FastCommits counts
// the commit-path requests a store served.
func TestCommitFastCommitCountersDisjoint(t *testing.T) {
	s := NewStore(nil, Config{})
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: kv.MakeOID(0, 1), Value: kv.NewPlain([]byte("fast"))},
	}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FastCommits != 1 || st.Commits != 0 || st.Prepares != 0 {
		t.Fatalf("after fast commit: Prepares=%d Commits=%d FastCommits=%d, want 0/0/1", st.Prepares, st.Commits, st.FastCommits)
	}
	commitPut(t, s, kv.MakeOID(0, 2), "two-phase")
	st = s.Stats()
	if st.FastCommits != 1 || st.Commits != 1 || st.Prepares != 1 {
		t.Fatalf("after both paths: Prepares=%d Commits=%d FastCommits=%d, want 1/1/1", st.Prepares, st.Commits, st.FastCommits)
	}
}

// TestCommitIdempotentReplay is the targeted regression for the
// phase-two retry: commit a transaction, replay the same commit
// request, and expect an acknowledgment (nil) instead of
// "commit of unknown tx".
func TestCommitIdempotentReplay(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("once"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	// The retried decision acks with the recorded outcome.
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatalf("replayed commit: %v, want ack", err)
	}
	// The replay neither double-applies nor double-counts.
	if n := s.VersionCount(oid); n != 1 {
		t.Fatalf("replay created %d versions, want 1", n)
	}
	if st := s.Stats(); st.Commits != 1 {
		t.Fatalf("replay double-counted: Commits=%d", st.Commits)
	}
	// A decision for a transaction this store never prepared is still
	// an error.
	if err := s.Commit(txid+999, proposed); !errors.Is(err, kv.ErrBadRequest) {
		t.Fatalf("commit of truly unknown tx: %v, want ErrBadRequest", err)
	}
	// The other outcome is reported too: a commit retried after an
	// abort decision must not silently ack.
	txid2 := newTxID()
	if _, err := s.Prepare(txid2, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: kv.MakeOID(0, 2), Value: kv.NewPlain([]byte("doomed"))},
	}); err != nil {
		t.Fatal(err)
	}
	s.Abort(txid2)
	if err := s.Commit(txid2, s.Clock().Now()); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("commit after abort decision: %v, want ErrConflict", err)
	}
}

// TestBareStoreIsSolePrimary: a store opened with no Server around it
// is born the sole primary of its own group — epoch at least 1, lease
// trivially valid — and serves the whole transaction surface, which is
// what every embedder (the centralized-SQL baseline, the benchmark's
// store probe) relies on.
func TestBareStoreIsSolePrimary(t *testing.T) {
	s, err := OpenStore(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() < 1 || s.Role() != RolePrimary || !s.LeaseValid() {
		t.Fatalf("bare store: epoch=%d role=%s leaseValid=%v, want epoch >= 1, primary, valid", s.Epoch(), s.Role(), s.LeaseValid())
	}
	if err := s.CheckClientOp(s.Epoch()); err != nil {
		t.Fatalf("bare store refuses a current-epoch client op: %v", err)
	}
	if err := s.CheckClientSlot(kv.MakeOID(7, 1)); err != nil {
		t.Fatalf("bare store refuses a slot under its birth directory: %v", err)
	}
	fast, twoPC := kv.MakeOID(0, 1), kv.MakeOID(7, 2)
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: fast, Value: kv.NewPlain([]byte("one-shot"))},
	}); err != nil {
		t.Fatal(err)
	}
	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: twoPC, Value: kv.NewPlain([]byte("two-phase"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	for oid, want := range map[kv.OID]string{fast: "one-shot", twoPC: "two-phase"} {
		if v, _, err := s.Read(oid, s.Clock().Now()); err != nil || string(v.Data) != want {
			t.Fatalf("read %v: %v %v, want %q", oid, v, err, want)
		}
	}
}

// TestOrphanPrepareSoleMember covers the stranded-lock cleanup on a
// sole-member group, which follows the one orphan rule like any other:
// within a stable epoch a prepare whose coordinator never sends phase
// two keeps its locks however long it waits (its coordinator may have
// decided commit); after an epoch bump and a fresh TTL it is aborted,
// its locks come free, and the abort is a recorded decision — while a
// decided transaction is never swept.
func TestOrphanPrepareSoleMember(t *testing.T) {
	old := prepareTTL
	prepareTTL = 10 * time.Millisecond
	defer func() { prepareTTL = old }()
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	txid := newTxID()
	if _, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("orphan"))},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := s.SweepOrphans(); n != 0 || !s.IsLocked(oid) {
		t.Fatalf("prepare swept past its TTL in a stable epoch: n=%d locked=%v", n, s.IsLocked(oid))
	}
	// The operator's unwedge: bump the epoch. The TTL restarts at the
	// bump, then the sweep reaps.
	if err := s.InstallEpoch(s.Epoch()+1, s.Members()); err != nil {
		t.Fatal(err)
	}
	if n := s.SweepOrphans(); n != 0 {
		t.Fatalf("superseded prepare swept before its post-bump TTL: %d", n)
	}
	time.Sleep(20 * time.Millisecond)
	if n := s.SweepOrphans(); n != 1 {
		t.Fatalf("superseded, expired prepare not swept: %d", n)
	}
	if s.IsLocked(oid) {
		t.Fatal("orphan abort did not release the lock")
	}
	if st := s.Stats(); st.OrphanAborts != 1 || st.Aborts != 1 {
		t.Fatalf("orphan counters: %+v", st)
	}
	// The late coordinator's commit is answered with the abort outcome.
	if err := s.Commit(txid, s.Clock().Now()); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("late commit after orphan abort: %v, want ErrConflict", err)
	}
	// A decided transaction never gets orphan-swept, even long past the
	// TTL: it left the prepared table with its decision.
	commitPut(t, s, kv.MakeOID(0, 2), "decided")
	time.Sleep(20 * time.Millisecond)
	if n := s.SweepOrphans(); n != 0 {
		t.Fatalf("decided tx swept as orphan: %d", n)
	}
}

// TestWALRecoversPreparedState: a participant that crashes between
// its yes vote and phase two restarts with the prepared transaction
// intact (staged ops and locks reconstructed from the RecPrepare log
// record), so the coordinator's decision still lands; a decision in
// the log is replayed to completion.
func TestWALRecoversPreparedState(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{LogPath: dir + "/wal.log"}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	undecided, decided := newTxID(), newTxID()
	oidU, oidD := kv.MakeOID(0, 1), kv.MakeOID(0, 2)
	if _, err := s.Prepare(undecided, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oidU, Value: kv.NewPlain([]byte("in-flight"))},
	}); err != nil {
		t.Fatal(err)
	}
	proposed, err := s.Prepare(decided, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oidD, Value: kv.NewPlain([]byte("committed"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(decided, proposed); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay the log into a fresh store.
	s2, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseLog()
	if v, _, err := s2.Read(oidD, s2.Clock().Now()); err != nil || string(v.Data) != "committed" {
		t.Fatalf("decided tx after replay: %v %v", v, err)
	}
	if !s2.IsLocked(oidU) {
		t.Fatal("undecided prepare lost in replay")
	}
	// The coordinator's late decision still applies after the restart.
	if err := s2.Commit(undecided, s2.Clock().Now()); err != nil {
		t.Fatalf("commit of recovered prepare: %v", err)
	}
	if v, _, err := s2.Read(oidU, s2.Clock().Now()); err != nil || string(v.Data) != "in-flight" {
		t.Fatalf("recovered tx not applied: %v %v", v, err)
	}
}

// TestDecidedTableEviction: outcomes age out of the decided table
// after decidedTTL, and a decision retried after that is back to
// "unknown tx" (the table is a bounded cache, not a permanent log).
func TestDecidedTableEviction(t *testing.T) {
	old := decidedTTL
	decidedTTL = 10 * time.Millisecond
	defer func() { decidedTTL = old }()
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	txid := newTxID()
	proposed, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("v"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	if known, committed := s.Decided(txid); !known || !committed {
		t.Fatalf("decision not recorded: known=%v committed=%v", known, committed)
	}
	time.Sleep(20 * time.Millisecond)
	s.SweepDecided()
	if known, _ := s.Decided(txid); known {
		t.Fatal("decision survived its TTL")
	}
	if err := s.Commit(txid, proposed); !errors.Is(err, kv.ErrBadRequest) {
		t.Fatalf("commit after eviction: %v, want ErrBadRequest", err)
	}
}
