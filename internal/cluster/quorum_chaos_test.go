package cluster_test

// Chaos drills for quorum replication groups (rf >= 3) and for the
// diverged-but-behind resync splice — the failure the per-record epoch
// check closes. The pinned guarantees:
//
//   - A replica whose history DIVERGED from the group's — even one
//     whose stream head is BEHIND the group's, so sequence-number
//     checks alone would pass — is never resynced by record replay: the
//     primary's sender finds the divergence and pushes it a snapshot.
//   - A group whose backups died and came back, empty, at the same
//     addresses heals itself: their senders retry, and push each one
//     a snapshot.
//   - An rf=3 group survives any single member's death or isolation
//     with zero acked-write loss; a dead BACKUP doesn't even surface
//     errors to clients (the quorum watermark advances on the
//     survivors and a majority of lease grants still renews).
//   - Failover promotes the most-caught-up live member, so a write
//     acknowledged by a bare quorum (primary + one of two backups)
//     survives the primary's death.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// TestDivergedButBehindResyncRejected is the regression for the resync
// splice: an isolated old primary strands a FEW records (locally
// committed, never acknowledged), the new epoch then writes MORE than
// it stranded, so the old primary's stream head ends up BEHIND the new
// primary's. Every sequence-number check passes — without the check of
// the record below the backup's head, the new primary's mirror would
// silently splice the new epoch's records on top of the stranded ones
// and the "caught-up backup" would differ from its primary at the same
// stream position. The pinned behavior: the record resync is refused
// (the old primary's stream epoch does not match the epoch the group's
// stream had in force at its head), so attaching the old primary as a
// backup succeeds only by a pushed snapshot that discards its stranded
// records, after which the stores are byte-identical.
func TestDivergedButBehindResyncRejected(t *testing.T) {
	cl, err := cluster.StartReplicated(1, 2, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var acked []ackedWrite
	for i := 0; i < 20; i++ {
		oid := c.NewOID(0)
		val := fmt.Sprintf("pre-%d", i)
		tx := c.Begin()
		tx.Put(oid, kv.NewPlain([]byte(val)))
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedWrite{oid, val})
	}

	old, err := cl.IsolatePrimary(0)
	if err != nil {
		t.Fatal(err)
	}
	newPrimary := cl.Groups[0].Primary

	// Strand a small number of records on the isolated old primary:
	// store-level commits bypass the epoch/lease gate, emit into its
	// local stream, and fail awaiting replication (the batch dies
	// unsent). Keep the count SMALL — the point of this drill is that
	// the old primary ends up behind, not ahead.
	const stranded = 3
	oldStore := old.Store()
	for i := uint64(0); i < stranded; i++ {
		txid := uint64(1<<50) + i
		if _, err := oldStore.FastCommit(txid, oldStore.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, txid), Value: kv.NewPlain([]byte("stranded"))},
		}); err == nil {
			t.Fatal("isolated primary acknowledged a write")
		}
	}

	// Grow the new epoch's stream PAST the old primary's head.
	c2, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; newPrimary.Store().ReplSeq() <= oldStore.ReplSeq()+3; i++ {
		oid := c2.NewOID(0)
		val := fmt.Sprintf("post-%d", i)
		tx := c2.Begin()
		tx.Put(oid, kv.NewPlain([]byte(val)))
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedWrite{oid, val})
	}
	if oldStore.ReplSeq() >= newPrimary.Store().ReplSeq() {
		t.Fatalf("drill setup failed: old head %d not behind new head %d", oldStore.ReplSeq(), newPrimary.Store().ReplSeq())
	}

	// The splice attempt: every seq check passes (the old primary is
	// strictly behind and above the log base), so only the check of the
	// record below its head can catch the divergence. It must, and the
	// sender then pushes the old primary the new one's state, its
	// stranded tail discarded — ending byte-identical.
	if err := newPrimary.Reconfigure(newPrimary.Store().Epoch()+1, append(newPrimary.Store().Members(), old.Addr())); err != nil {
		t.Fatalf("attach of diverged old primary: %v", err)
	}
	if got := oldStore.Stats().SnapshotsInstalled; got != 1 {
		t.Fatalf("diverged old primary installed %d snapshots, want 1: its history was spliced", got)
	}
	if got, want := oldStore.StateDigest(), newPrimary.Store().StateDigest(); got != want {
		t.Fatalf("after the push: old digest %x != new primary digest %x", got, want)
	}

	// Zero acked-write loss throughout.
	check := c2.Begin()
	defer check.Abort()
	for _, aw := range acked {
		v, err := check.Read(ctx, aw.oid)
		if err != nil || string(v.Data) != aw.val {
			t.Fatalf("acknowledged write %v=%q lost: %v %v", aw.oid, aw.val, v, err)
		}
	}
}

// quorumLoad drives concurrent writers against slot 0 of cl, invoking
// disrupt from worker 0 partway through, and returns the writes whose
// Commit was acknowledged plus the uncertain/failed counts.
func quorumLoad(t *testing.T, cl *cluster.Cluster, disrupt func()) (acked []ackedWrite, uncertain, failed int) {
	t.Helper()
	ctx := context.Background()
	const workers = 6
	const writesPerWorker = 50
	const disruptAfter = 15
	var mu sync.Mutex
	var once sync.Once
	var wg sync.WaitGroup
	// Every client is opened before any worker runs: disrupt changes the
	// cluster's membership, which NewClient reads.
	clients := make([]*kvclient.Client, workers)
	for w := range clients {
		c, err := cl.NewClient()
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		defer c.Close()
		clients[w] = c
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for i := 0; i < writesPerWorker; i++ {
				if w == 0 && i == disruptAfter {
					once.Do(disrupt)
				}
				oid := c.NewOID(0)
				val := fmt.Sprintf("w%d-%d", w, i)
				tx := c.Begin()
				tx.Put(oid, kv.NewPlain([]byte(val)))
				err := tx.Commit(ctx)
				mu.Lock()
				switch {
				case err == nil:
					acked = append(acked, ackedWrite{oid, val})
				case errors.Is(err, kv.ErrUncertain):
					uncertain++
				default:
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return acked, uncertain, failed
}

// verifyAcked asserts every acknowledged write is readable through a
// FRESH client — which also exercises OpenReplicated against a group
// with dead members in its address list. A just-promoted primary
// serves only under a quorum lease, and its first grants arrive
// asynchronously from the rejoined members' heartbeats, so give it
// a moment to become serviceable first.
func verifyAcked(t *testing.T, cl *cluster.Cluster, acked []ackedWrite) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cl.Groups[0].Primary.Stats().LeaseValid {
		if time.Now().After(deadline) {
			t.Fatal("primary never obtained a quorum lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	verify, err := cl.NewClient()
	if err != nil {
		t.Fatalf("open fresh client after failure: %v", err)
	}
	defer verify.Close()
	check := verify.Begin()
	defer check.Abort()
	for _, aw := range acked {
		v, err := check.Read(context.Background(), aw.oid)
		if err != nil || string(v.Data) != aw.val {
			t.Fatalf("acknowledged write %v=%q lost: %v %v", aw.oid, aw.val, v, err)
		}
	}
}

// TestQuorumGroupMinorityFailureMatrix kills or isolates each role of
// an rf=3 group in the middle of a concurrent workload and pins the
// quorum guarantees: a dead BACKUP is invisible to clients (every
// commit acknowledged, the quorum watermark advances on the survivors,
// the lease stays renewed by the surviving majority); a dead or
// isolated PRIMARY loses zero acknowledged writes across the failover.
func TestQuorumGroupMinorityFailureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos drill (-short)")
	}
	t.Run("kill-backup", func(t *testing.T) {
		cl, err := cluster.StartReplicated(1, 3, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		acked, uncertain, failed := quorumLoad(t, cl, func() {
			if err := cl.KillBackup(0, 1); err != nil {
				t.Errorf("kill backup: %v", err)
			}
		})
		// The whole point of rf=3: one dead backup is a non-event for
		// clients.
		if uncertain != 0 || failed != 0 {
			t.Fatalf("commits failed despite a surviving quorum: acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)
		}
		verifyAcked(t, cl, acked)
		g := cl.Groups[0]
		if len(g.Backups) != 1 {
			t.Fatalf("backups after kill: %d", len(g.Backups))
		}
		// The surviving backup holds every acked write too (it is the
		// quorum partner for all of them once the dead member broke).
		if got, want := g.Backups[0].Store().ReplSeq(), g.Primary.Store().ReplSeq(); got != want {
			t.Fatalf("surviving backup seq %d != primary seq %d", got, want)
		}
		if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
			t.Fatalf("surviving backup digest %x != primary digest %x", got, want)
		}
		// Per-member stats make the dead member visible: one broken
		// replica, quorum still 1.
		st := g.Primary.Stats()
		broken := 0
		for _, r := range st.Replicas {
			if r.Broken {
				broken++
			}
		}
		if broken != 1 || st.QuorumNeed != 1 {
			t.Fatalf("replica stats after backup death: %+v need=%d, want one broken member and need 1", st.Replicas, st.QuorumNeed)
		}
		// Re-form to full strength and converge all three.
		if err := cl.Restart(0); err != nil {
			t.Fatal(err)
		}
		for i, b := range cl.Groups[0].Backups {
			if got, want := b.Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
				t.Fatalf("re-formed backup %d digest %x != primary digest %x", i, got, want)
			}
		}
	})
	t.Run("kill-primary", func(t *testing.T) {
		cl, err := cluster.StartReplicated(1, 3, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		acked, uncertain, failed := quorumLoad(t, cl, func() {
			if err := cl.KillPrimary(0); err != nil {
				t.Errorf("kill primary: %v", err)
			}
		})
		if len(acked) == 0 {
			t.Fatalf("degenerate run: acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)
		}
		t.Logf("acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)
		verifyAcked(t, cl, acked)
		g := cl.Groups[0]
		if len(g.Backups) != 1 {
			t.Fatalf("backups after failover: %d", len(g.Backups))
		}
		// The loser rejoined the winner's stream and converged.
		if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
			t.Fatalf("rejoined backup digest %x != new primary digest %x", got, want)
		}
	})
	t.Run("isolate-primary", func(t *testing.T) {
		cl, err := cluster.StartReplicated(1, 3, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var old *kvserver.Server
		acked, uncertain, failed := quorumLoad(t, cl, func() {
			o, err := cl.IsolatePrimary(0)
			if err != nil {
				t.Errorf("isolate primary: %v", err)
				return
			}
			old = o
		})
		if old == nil {
			t.Fatal("workload finished before the primary was isolated")
		}
		if len(acked) == 0 {
			t.Fatalf("degenerate run: acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)
		}
		verifyAcked(t, cl, acked)
		// The deposed primary's quorum lease is gone (both backups'
		// grants were waited out before the new epoch served): even a
		// direct store-level write fails.
		oldStore := old.Store()
		if _, err := oldStore.FastCommit(1<<51, oldStore.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, 1<<51), Value: kv.NewPlain([]byte("stale"))},
		}); err == nil {
			t.Fatal("isolated deposed primary acknowledged a write")
		}
	})
}

// TestPromotePicksMostCaughtUpBackup pins the promotion rule that
// makes bare-quorum acks safe: with rf=3 a write is acknowledged once
// the primary plus ONE backup hold it, so if the primary then dies,
// promoting the OTHER backup would lose the write. The drill freezes
// one backup (it refuses every batch, as a member mid-promotion does,
// and falls behind while it stays a listed member), keeps writing —
// every write now lives on exactly primary + the other backup — then
// kills the primary.
// Promotion must compare stream heads and pick the caught-up member;
// the laggard rejoins as its backup and converges.
func TestPromotePicksMostCaughtUpBackup(t *testing.T) {
	cl, err := cluster.StartReplicated(1, 3, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	g := cl.Groups[0]
	caughtUp, laggard := g.Backups[0], g.Backups[1]

	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var acked []ackedWrite
	write := func(i int, label string) {
		oid := c.NewOID(0)
		val := fmt.Sprintf("%s-%d", label, i)
		tx := c.Begin()
		tx.Put(oid, kv.NewPlain([]byte(val)))
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("%s write %d: %v", label, i, err)
		}
		acked = append(acked, ackedWrite{oid, val})
	}
	for i := 0; i < 10; i++ {
		write(i, "shared")
	}
	// The laggard stops accepting records; commits keep succeeding on
	// the bare quorum (primary + caughtUp).
	laggard.Store().BeginPromotion()
	for i := 0; i < 25; i++ {
		write(i, "quorum")
	}
	if lag, cu := laggard.Store().ReplSeq(), caughtUp.Store().ReplSeq(); lag >= cu {
		t.Fatalf("drill setup failed: laggard head %d not behind caught-up head %d", lag, cu)
	}

	if err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Groups[0].Primary.Addr(), caughtUp.Addr(); got != want {
		t.Fatalf("promotion picked %s, want the most-caught-up member %s", got, want)
	}
	verifyAcked(t, cl, acked)
	// The laggard rejoined the winner's stream during promotion and
	// converged.
	if len(cl.Groups[0].Backups) != 1 || cl.Groups[0].Backups[0] != laggard {
		t.Fatalf("laggard did not rejoin as backup")
	}
	if got, want := laggard.Store().StateDigest(), caughtUp.Store().StateDigest(); got != want {
		t.Fatalf("rejoined laggard digest %x != new primary digest %x", got, want)
	}
}
