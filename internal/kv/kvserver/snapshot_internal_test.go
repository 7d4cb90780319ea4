package kvserver

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"yesquel/internal/kv"
)

// TestSnapshotSkipsUnreplicatedLockOnlyObjects: a transaction whose
// record has not entered the stream yet (mid-FastCommit, or a 2PC
// prepare still taking its locks) stages its lock on a bare
// zero-version object. A state snapshot captured in that window must
// not materialize the object on the installer: if the transaction
// later gives its locks up without a stream record, nothing would ever
// delete the installer's copy, and the phantom would diverge
// StateDigest forever.
func TestSnapshotSkipsUnreplicatedLockOnlyObjects(t *testing.T) {
	s := NewStore(nil, Config{})
	commitPut(t, s, kv.MakeOID(0, 1), "real")

	// Reproduce the mid-FastCommit state deterministically: the lock
	// taken and staged, nothing emitted yet.
	txid := newTxID()
	ops := []*kv.Op{{Kind: kv.OpPut, OID: kv.MakeOID(0, 2), Value: kv.NewPlain([]byte("inflight"))}}
	oids, byOID := groupOps(ops)
	if _, _, _, err := s.lockOps(txid, s.Clock().Now(), ops, oids, byOID); err != nil {
		t.Fatal(err)
	}

	// The push captures the state in that window: the retained log no
	// longer reaches an empty member's head, so its sender pushes a
	// snapshot.
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := NewStore(nil, Config{})
	if err := <-s.AttachMirrorMember("r", r.ApplyMirroredBatch); err != nil {
		t.Fatal(err)
	}
	defer s.DetachAllMirrorMembers()
	if got := r.Stats().SnapshotsInstalled; got != 1 {
		t.Fatalf("member installed %d snapshots, want 1 (the pushed one)", got)
	}
	if r.NumObjects() != 1 {
		t.Fatalf("installer holds %d objects, want 1 (the phantom lock-only object leaked)", r.NumObjects())
	}

	// The in-flight transaction gives its locks up with no stream
	// record; both replicas must agree.
	s.releaseLocks(txid, oids)
	if got, want := r.StateDigest(), s.StateDigest(); got != want {
		t.Fatalf("installer digest %x != source digest %x after no-decision abort", got, want)
	}
}

// TestCommitRacingAttachIsCoveredByCapture pins the seam a pushed
// snapshot and the mirror meet at. A member rebuilt from a capture at
// stream position C is owed the history below C through the capture,
// and every record from C on through its sender, whose position moves
// to C in the same repMu section as the capture. That only adds up if
// every record below a capture's position has its effects in the
// capture — emit and apply are one repMu section on every store, so no
// commit can be counted below C yet applied after the capture.
func TestCommitRacingAttachIsCoveredByCapture(t *testing.T) {
	put := func(oid kv.OID, i int) []*kv.Op {
		return []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte(fmt.Sprintf("v%d", i)))}}
	}
	for _, tc := range []struct {
		name   string
		commit func(s *Store, oid kv.OID, i int) error
	}{
		{"fast commit", func(s *Store, oid kv.OID, i int) error {
			_, err := s.FastCommit(newTxID(), s.Clock().Now(), put(oid, i))
			return err
		}},
		{"two-phase commit", func(s *Store, oid kv.OID, i int) error {
			txid := newTxID()
			ts, err := s.Prepare(txid, s.Clock().Now(), put(oid, i))
			if err != nil {
				return err
			}
			return s.Commit(txid, ts)
		}},
		{"two-phase abort", func(s *Store, oid kv.OID, i int) error {
			txid := newTxID()
			if _, err := s.Prepare(txid, s.Clock().Now(), put(oid, i)); err != nil {
				return err
			}
			s.Abort(txid)
			_, err := s.FastCommit(newTxID(), s.Clock().Now(), put(oid, i))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A short retained log: the attach, among commits, is answered
			// by a pushed snapshot.
			src, dst := NewStore(nil, Config{ReplicationLogMaxRecords: 8}), NewStore(nil, Config{})
			src.SetSelf("src")
			const writers = 4
			var committed atomic.Uint64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := tc.commit(src, kv.MakeOID(0, uint64(w*100+i%16)), i); err != nil {
							t.Errorf("writer %d op %d: %v", w, i, err)
							return
						}
						committed.Add(1)
					}
				}(w)
			}
			waitCommits := func(n uint64) {
				for target := committed.Load() + n; committed.Load() < target && !t.Failed(); {
					runtime.Gosched()
				}
			}
			waitCommits(50)

			if err := <-src.AttachMirrorMember("dst", dst.ApplyMirroredBatch); err != nil {
				t.Fatal(err)
			}
			if got := dst.Stats().SnapshotsInstalled; got == 0 {
				t.Fatal("the member joined without a pushed snapshot; the test needs the push")
			}
			// As Server.Reconfigure does: the caught-up learner is listed,
			// and votes from here on.
			if err := src.InstallEpoch(2, []string{"src", "dst"}); err != nil {
				t.Fatal(err)
			}
			waitCommits(50)
			close(stop)
			wg.Wait()

			// Every writer has returned, so every record is acknowledged:
			// dst holds it.
			if got, want := dst.ReplSeq(), src.ReplSeq(); got != want {
				t.Fatalf("member at seq %d, source at %d", got, want)
			}
			if got, want := dst.StateDigest(), src.StateDigest(); got != want {
				t.Fatalf("member digest %x != source digest %x: a commit fell between the capture and the member's position", got, want)
			}
			src.DetachAllMirrorMembers()
		})
	}
}
