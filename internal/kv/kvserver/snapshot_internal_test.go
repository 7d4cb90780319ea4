package kvserver

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"yesquel/internal/kv"
)

// TestSnapshotSkipsUnreplicatedLockOnlyObjects: an in-flight
// unreplicated prepare (mid-FastCommit, or a 2PC prepare whose record
// has not entered the stream yet) stages its lock on a bare
// zero-version object. A state snapshot captured in that window must
// not materialize the object on the installer: if the transaction
// later aborts without a stream decision, nothing would ever delete
// the installer's copy, and the phantom would diverge StateDigest
// forever.
func TestSnapshotSkipsUnreplicatedLockOnlyObjects(t *testing.T) {
	s := NewStore(nil, Config{})
	commitPut(t, s, kv.MakeOID(0, 1), "real")

	// Reproduce the mid-FastCommit state deterministically: lock staged
	// with replicate=false, commit not yet run.
	txid := newTxID()
	inflight := kv.MakeOID(0, 2)
	if _, _, err := s.prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: inflight, Value: kv.NewPlain([]byte("inflight"))},
	}, false); err != nil {
		t.Fatal(err)
	}

	_, _, chunks, data, err := s.ServeSnapshotChunk(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 1 {
		t.Fatalf("test snapshot unexpectedly split into %d chunks", chunks)
	}
	r := NewStore(nil, Config{})
	if err := r.InstallSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if r.NumObjects() != 1 {
		t.Fatalf("installer holds %d objects, want 1 (the phantom lock-only object leaked)", r.NumObjects())
	}

	// The in-flight transaction aborts with no stream decision (its
	// record never entered the stream); both replicas must agree.
	s.Abort(txid)
	if got, want := r.StateDigest(), s.StateDigest(); got != want {
		t.Fatalf("installer digest %x != source digest %x after no-decision abort", got, want)
	}
}

// TestCommitRacingAttachIsCoveredByCapture pins the seam a state
// transfer and the mirror meet at. A member rebuilt from a capture at
// stream position C is owed the history below C through the capture,
// and every record from C on through its sender, which resends from C
// when the member's first reply names that head. That only adds up if
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
			src, dst := NewStore(nil, Config{}), NewStore(nil, Config{})
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

			_, seq, chunks, data, err := src.ServeSnapshotChunk(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if chunks != 1 {
				t.Fatalf("capture at seq %d in %d chunks", seq, chunks)
			}
			if err := dst.InstallSnapshot(data); err != nil {
				t.Fatal(err)
			}
			waitCommits(50)
			if err := <-src.AttachMirrorMember("dst", dst.ApplyMirroredBatch); err != nil {
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
				t.Fatalf("member digest %x != source digest %x: a commit fell between the capture and the queue", got, want)
			}
			src.DetachAllMirrorMembers()
		})
	}
}
