package kvserver

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"yesquel/internal/kv"
)

// prepared reports whether txid is in s's prepared-transaction table.
func prepared(s *Store, txid uint64) bool {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	return s.txs[txid] != nil
}

// TestDecidedTableOutlivesFastCommits: the decided table keeps two-phase
// outcomes for retried phase-two requests, and a fast commit never
// enters it, on the primary or on a backup applying its RecCommit. So a
// table's worth of fast commits after a two-phase commit evicts nothing:
// the retried Commit is still acknowledged on both members.
func TestDecidedTableOutlivesFastCommits(t *testing.T) {
	p, b := NewStore(nil, Config{}), NewStore(nil, Config{})
	p.SetSelf("p")
	b.SetSelf("b")
	if err := p.InstallEpoch(2, []string{"p", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := <-p.AttachMirrorMember("b", b.ApplyMirroredBatch); err != nil {
		t.Fatal(err)
	}
	defer p.DetachAllMirrorMembers()

	twoPhase := newTxID()
	ts, err := p.Prepare(twoPhase, p.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: kv.MakeOID(0, 1), Value: kv.NewPlain([]byte("2pc"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(twoPhase, ts); err != nil {
		t.Fatal(err)
	}

	// decidedMax fast commits, from a few writers so that the mirror
	// batches them.
	const writers = 8
	fast := make([]uint64, decidedMax)
	for i := range fast {
		fast[i] = newTxID()
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(fast); i += writers {
				ops := []*kv.Op{{Kind: kv.OpPut, OID: kv.MakeOID(0, uint64(2+w)), Value: kv.NewPlain([]byte("fast"))}}
				if _, err := p.FastCommit(fast[i], p.Clock().Now(), ops); err != nil {
					errs <- fmt.Errorf("fast commit %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := b.ReplSeq(), p.ReplSeq(); got != want {
		t.Fatalf("backup at seq %d, primary at %d", got, want)
	}

	for _, m := range []struct {
		name string
		s    *Store
	}{{"primary", p}, {"backup", b}} {
		if err := m.s.Commit(twoPhase, ts); err != nil {
			t.Errorf("%s: retried commit of the two-phase tx: %v, want an ack", m.name, err)
		}
		for _, txid := range fast {
			if known, _ := m.s.Decided(txid); known {
				t.Errorf("%s: fast commit tx %d entered the decided table", m.name, txid)
				break
			}
		}
	}
}

// TestAbortDuringPrepareReleasesEveryLock: a coordinator that gives up
// on a participant aborts it, and the participant may still be taking
// the prepare's locks. The abort releases the locks taken so far and
// the prepare must release the rest once it finds its transaction gone:
// no lock outlives the two calls. The object the test holds in the
// first lock's shard lines the abort up right behind the prepare's lock
// loop, which the abort then overtakes.
func TestAbortDuringPrepareReleasesEveryLock(t *testing.T) {
	const objects, rounds = 400, 20
	s := NewStore(nil, Config{})
	for r := 0; r < rounds; r++ {
		ops := make([]*kv.Op, objects)
		for i := range ops {
			ops[i] = &kv.Op{Kind: kv.OpPut, OID: kv.MakeOID(0, uint64(r*objects+i+1)), Value: kv.NewPlain([]byte("v"))}
		}
		oids, _ := groupOps(ops)
		txid := newTxID()

		first := s.shardFor(oids[0])
		first.mu.Lock()
		voted := make(chan error, 1)
		go func() {
			_, err := s.Prepare(txid, s.Clock().Now(), ops)
			voted <- err
		}()
		for !prepared(s, txid) {
			runtime.Gosched()
		}
		aborted := make(chan struct{})
		go func() {
			s.Abort(txid)
			close(aborted)
		}()
		for prepared(s, txid) {
			runtime.Gosched()
		}
		first.mu.Unlock()
		<-aborted
		if err := <-voted; !errors.Is(err, kv.ErrConflict) {
			t.Fatalf("round %d: prepare aborted under it voted %v, want kv.ErrConflict", r, err)
		}
		locked := 0
		for _, oid := range oids {
			if s.IsLocked(oid) {
				locked++
			}
		}
		if locked > 0 {
			t.Fatalf("round %d: %d of %d objects still locked after the abort and the prepare returned", r, locked, objects)
		}
	}
	if n := s.NumObjects(); n != 0 {
		t.Fatalf("%d objects left behind by aborted prepares", n)
	}
}

// TestCommitBeforeVoteIsRefused: a Commit that reaches a prepare still
// taking its locks (no correct coordinator sends one) is refused, and
// the prepare goes on to vote and commit.
func TestCommitBeforeVoteIsRefused(t *testing.T) {
	s := NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	txid := newTxID()
	sh := s.shardFor(oid)
	sh.mu.Lock()
	voted := make(chan error, 1)
	go func() {
		_, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("v"))}})
		voted <- err
	}()
	for !prepared(s, txid) {
		runtime.Gosched()
	}
	err := s.Commit(txid, s.Clock().Now())
	sh.mu.Unlock()
	if !errors.Is(err, kv.ErrBadRequest) {
		t.Fatalf("commit before the vote: %v, want kv.ErrBadRequest", err)
	}
	if err := <-voted; err != nil {
		t.Fatalf("prepare after the refused commit: %v", err)
	}
	if err := s.Commit(txid, s.Clock().Now()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Commits != 1 || s.ReplSeq() != 2 {
		t.Fatalf("Commits=%d at seq %d, want 1 at 2 (the prepare and its decision)", st.Commits, s.ReplSeq())
	}
}

// TestFastCommitLosingItsLocksEmitsNothing: a snapshot install wipes
// every lock, a fast commit's between its lock loop and its emission
// too. The fast commit then fails with nothing in the stream rather
// than emit a record whose writes it cannot install.
func TestFastCommitLosingItsLocksEmitsNothing(t *testing.T) {
	s := NewStore(nil, Config{})
	commitPut(t, s, kv.MakeOID(0, 1), "kept")
	head := s.ReplSeq()
	oid := kv.MakeOID(0, 2)
	s.repMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("lost"))}})
		done <- err
	}()
	for !s.IsLocked(oid) {
		runtime.Gosched()
	}
	err := s.installSnapshotLocked(s.captureSnapshotLocked())
	s.repMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("fast commit whose locks an install wiped: %v, want kv.ErrConflict", err)
	}
	if got := s.ReplSeq(); got != head {
		t.Fatalf("stream head %d, want %d: the fast commit emitted a record", got, head)
	}
	if s.IsLocked(oid) || s.NumObjects() != 1 {
		t.Fatalf("locked=%v objects=%d, want the install's state alone", s.IsLocked(oid), s.NumObjects())
	}
}
