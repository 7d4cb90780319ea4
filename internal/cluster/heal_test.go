package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
)

// TestGroupHealsWithNoOperatorCall: an rf=5 group loses backups one by
// one — two (still a quorum), then a third (quorum lost) — and empty
// servers come back on two of the dead addresses. Nothing attaches,
// restarts or re-forms anything: the primary's senders, retrying the
// dead members all along, reach the new servers, push each a snapshot
// (the stream has run past its retained log) and stream on from there,
// and the group commits again.
func TestGroupHealsWithNoOperatorCall(t *testing.T) {
	cfg := kvserver.Config{ReplicationLogMaxRecords: 16, LeaseDuration: 150 * time.Millisecond}
	cl, err := cluster.StartReplicated(1, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	g := cl.Groups[0]
	primary := g.Primary
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commit := func(tag string, i int) error {
		tx := c.Begin()
		tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("%s-%d", tag, i))))
		return tx.Commit(ctx)
	}

	// Two of the four backups die: the primary and the other two are
	// still a majority, and need stays 2.
	dead := []*kvserver.Server{g.Backups[0], g.Backups[1], g.Backups[2]}
	addrs := []string{dead[0].Addr(), dead[1].Addr()}
	dead[0].Close()
	dead[1].Close()
	for i := 0; i < 20; i++ {
		if err := commit("minority-down", i); err != nil {
			t.Fatalf("commit %d with two of four backups down: %v", i, err)
		}
	}
	if need := primary.Stats().QuorumNeed; need != 2 {
		t.Fatalf("quorum need %d with two broken members, want 2: a broken member stays a voter", need)
	}

	// A third: the quorum is lost, and a commit is uncertain. (Store
	// commits: the client's would be refused once the primary's lease
	// lapses.)
	dead[2].Close()
	st := primary.Store()
	txid := uint64(1 << 50)
	storeCommit := func() error {
		txid++
		_, err := st.FastCommit(txid, st.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, txid), Value: kv.NewPlain([]byte("x"))},
		})
		return err
	}
	if err := storeCommit(); !errors.Is(err, kv.ErrUncertain) {
		t.Fatalf("commit with three of four backups down: %v, want kv.ErrUncertain", err)
	}

	// Empty servers come back on two of the dead addresses, and the
	// stream runs on past its retained log.
	var fresh []*kvserver.Server
	defer func() {
		for _, srv := range fresh {
			srv.Close()
		}
	}()
	for _, a := range addrs {
		srv := kvserver.NewServer(kvserver.NewStore(nil, cfg))
		if err := srv.Listen(a); err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		fresh = append(fresh, srv)
	}
	for i := 0; i < 3*cfg.ReplicationLogMaxRecords; i++ {
		storeCommit() // uncertain until the quorum is back
	}

	// healed waits until both members have acknowledged the stream head
	// and are no longer broken.
	deadline := time.Now().Add(10 * time.Second)
	healed := func() {
		t.Helper()
		for {
			s, n := primary.Stats(), 0
			for _, r := range s.Replicas {
				if (r.Member == addrs[0] || r.Member == addrs[1]) && !r.Broken && r.AckedSeq == s.ReplHead {
					n++
				}
			}
			if n == len(addrs) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("members not healed within 10 s: %+v at head %d", s.Replicas, s.ReplHead)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	healed()
	if got := st.Stats().SnapshotsServed; got < 2 {
		t.Fatalf("primary pushed %d snapshots, want one to each empty member", got)
	}

	// The client commits again, once the healed members' grants have
	// renewed the primary's lease.
	for !primary.Stats().LeaseValid {
		if time.Now().After(deadline) {
			t.Fatal("primary never regained a quorum lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if err := commit("healed", i); err != nil {
			t.Fatalf("commit %d after the group healed: %v", i, err)
		}
	}
	if err := storeCommit(); err != nil {
		t.Fatalf("store commit after the group healed: %v", err)
	}
	healed()
	for i, srv := range fresh {
		if got, want := srv.Store().StateDigest(), st.StateDigest(); got != want {
			t.Fatalf("healed member %s: digest %x != primary digest %x", addrs[i], got, want)
		}
	}
}
