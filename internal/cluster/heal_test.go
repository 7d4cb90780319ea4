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

// TestRestartCountsTheQuorumOverTheLiveGroup: the installed epoch is the
// quorum's membership. An rf=3 group loses a backup and is restarted to
// full strength: the epoch Restart installs no longer lists the dead
// member, so its sender is gone, and the quorum is one of the two live
// backups — the lease's count too. When a second backup then dies, the
// survivor alone completes a majority, and every commit is acknowledged
// and readable.
func TestRestartCountsTheQuorumOverTheLiveGroup(t *testing.T) {
	cl, err := cluster.StartReplicated(1, 3, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	g := cl.Groups[0]
	if err := cl.KillBackup(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	st := g.Primary.Stats()
	if st.QuorumNeed != 1 {
		t.Fatalf("quorum need %d after the restart, want 1: members %v", st.QuorumNeed, st.Members)
	}
	var replicas []string
	for _, r := range st.Replicas {
		if r.Broken {
			t.Fatalf("replica %s broken after the restart", r.Member)
		}
		replicas = append(replicas, r.Member)
	}
	if got, want := fmt.Sprint(replicas), fmt.Sprint(g.Addrs[1:]); got != want {
		t.Fatalf("replicas %s after the restart, want the live backups %s", got, want)
	}

	if err := cl.KillBackup(0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var acked []ackedWrite
	for i := 0; i < 5; i++ {
		oid := c.NewOID(0)
		val := fmt.Sprintf("survivor-%d", i)
		tx := c.Begin()
		tx.Put(oid, kv.NewPlain([]byte(val)))
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit %d with one of two backups down: %v", i, err)
		}
		acked = append(acked, ackedWrite{oid, val})
	}
	verifyAcked(t, cl, acked)
}
