package kvserver

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/kv"
)

// gatedSend delivers a member's batches to dst once gate is closed, and
// counts the batches its sender has begun.
func gatedSend(dst *Store, gate <-chan struct{}, calls *atomic.Int64) func(*kv.MirrorBatchReq) error {
	return func(req *kv.MirrorBatchReq) error {
		calls.Add(1)
		<-gate
		return dst.ApplyMirroredBatch(req)
	}
}

// replicaIDs lists the members s's pipeline has senders for.
func replicaIDs(s *Store) (need int, ids []string) {
	_, _, need, members := s.ReplicationStatus()
	for _, m := range members {
		ids = append(ids, m.Member)
	}
	return need, ids
}

// asyncCommit runs a one-op fast commit on s and delivers its outcome.
func asyncCommit(s *Store, oid kv.OID) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("v"))},
		})
		done <- err
	}()
	return done
}

// TestInstallDetachesUnnamedMembers: the installed epoch is the quorum's
// membership. An install that drops a member stops its sender, and
// ReplicationStatus lists only the named members. The waiters are judged
// as any detach judges them: a record the dropped member was to hold
// waits for the remaining members, and when the last voter goes, the
// unacknowledged window fails.
// An acknowledgment never rests on a record too few members hold.
func TestInstallDetachesUnnamedMembers(t *testing.T) {
	t.Run("one of two voters", func(t *testing.T) {
		p := NewStore(nil, Config{LeaseDuration: 30 * time.Millisecond})
		p.SetSelf("p")
		if err := p.InstallEpoch(2, []string{"p", "a", "b"}); err != nil {
			t.Fatal(err)
		}
		a, b := NewStore(nil, Config{}), NewStore(nil, Config{})
		aGate, bGate := make(chan struct{}), make(chan struct{})
		var aCalls, bCalls atomic.Int64
		p.AttachMirrorMember("a", gatedSend(a, aGate, &aCalls))
		p.AttachMirrorMember("b", gatedSend(b, bGate, &bCalls))
		defer p.DetachAllMirrorMembers()
		if need, ids := replicaIDs(p); need != 1 || !slices.Equal(ids, []string{"a", "b"}) {
			t.Fatalf("listed members attached as need %d over %v, want 1 over [a b]", need, ids)
		}
		if err := <-p.AttachMirrorMember("a", gatedSend(a, aGate, &aCalls)); err == nil {
			t.Fatal("a second sender for a was attached: its acks would count twice")
		}

		committed := asyncCommit(p, kv.MakeOID(0, 1))
		installed := make(chan error, 1)
		go func() { installed <- p.InstallEpoch(3, []string{"p", "a"}) }()
		deadline := time.Now().Add(5 * time.Second)
		for p.Epoch() != 3 {
			if time.Now().After(deadline) {
				t.Fatal("the install never ran")
			}
			time.Sleep(time.Millisecond)
		}
		if need, ids := replicaIDs(p); need != 1 || !slices.Equal(ids, []string{"a"}) {
			t.Fatalf("after dropping b: need %d over %v, want 1 over [a]", need, ids)
		}

		// b's held batch now goes through; its sender was detached, so
		// what b holds counts for nothing, and it is sent nothing more
		// (TestReplCoreDetach's rows pin both).
		close(bGate)
		close(aGate)
		if err := <-committed; err != nil {
			t.Fatalf("commit once the remaining member holds it: %v", err)
		}
		if err := <-installed; err != nil {
			t.Fatalf("install: %v", err)
		}
	})

	t.Run("the last voter", func(t *testing.T) {
		p := NewStore(nil, Config{})
		p.SetSelf("p")
		if err := p.InstallEpoch(2, []string{"p", "a"}); err != nil {
			t.Fatal(err)
		}
		a := NewStore(nil, Config{})
		aGate := make(chan struct{})
		defer close(aGate)
		var aCalls atomic.Int64
		p.AttachMirrorMember("a", gatedSend(a, aGate, &aCalls))
		defer p.DetachAllMirrorMembers()
		committed := asyncCommit(p, kv.MakeOID(0, 1))
		for p.ReplSeq() < 2 {
			time.Sleep(time.Millisecond)
		}
		// The install needs no ack of its own: it emits its record after
		// the detach, to a group of one.
		if err := p.InstallEpoch(3, []string{"p"}); err != nil {
			t.Fatalf("install of the sole membership: %v", err)
		}
		if err := <-committed; !errors.Is(err, kv.ErrUncertain) {
			t.Fatalf("commit the dropped last voter never acked: %v, want kv.ErrUncertain", err)
		}
		if need, ids := replicaIDs(p); need != 0 || len(ids) != 0 {
			t.Fatalf("sole member: need %d over %v, want 0 over none", need, ids)
		}
	})
}

// TestPromotedReplicaWaitsOnRetriedCommit: a decision a replica holds —
// applied from its primary's stream, or installed from a pushed snapshot
// — is, on that replica, no more durable than the record that carried it.
// Once the replica is promoted into a group whose other member does not
// acknowledge anything, a retried Commit of that transaction is uncertain,
// not acknowledged on the promoted replica's word alone.
func TestPromotedReplicaWaitsOnRetriedCommit(t *testing.T) {
	for _, tc := range []struct {
		name string
		push bool // the primary's log no longer reaches the backup when it attaches
	}{
		{"applied from the stream", false},
		{"installed from a snapshot", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, b := NewStore(nil, Config{}), NewStore(nil, Config{})
			p.SetSelf("p")
			b.SetSelf("b")
			if err := p.InstallEpoch(2, []string{"p", "b"}); err != nil {
				t.Fatal(err)
			}
			attach := func() {
				if err := <-p.AttachMirrorMember("b", b.ApplyMirroredBatch); err != nil {
					t.Fatal(err)
				}
			}
			if !tc.push {
				attach()
			}
			// A two-phase commit (RecPrepare, RecDecide) and a fast commit
			// (a RecCommit, which enters no decided table).
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
			fast := newTxID()
			_, err = p.FastCommit(fast, p.Clock().Now(), []*kv.Op{
				{Kind: kv.OpPut, OID: kv.MakeOID(0, 2), Value: kv.NewPlain([]byte("fast"))},
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.push {
				if _, err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				attach()
				if got := b.Stats().SnapshotsInstalled; got != 1 {
					t.Fatalf("backup installed %d snapshots, want 1", got)
				}
			}
			p.DetachAllMirrorMembers()

			if err := b.InstallEpoch(b.Epoch()+1, []string{"b", "x"}); err != nil {
				t.Fatal(err)
			}
			b.AttachMirrorMember("x", func(*kv.MirrorBatchReq) error { return errors.New("unreachable") })
			defer b.DetachAllMirrorMembers()
			if err := b.Commit(twoPhase, ts); !errors.Is(err, kv.ErrUncertain) {
				t.Fatalf("retried commit of tx %d on the promoted replica: %v, want kv.ErrUncertain", twoPhase, err)
			}
			if known, _ := b.Decided(fast); known {
				t.Fatalf("the fast commit's tx %d entered the promoted replica's decided table", fast)
			}
		})
	}
}
