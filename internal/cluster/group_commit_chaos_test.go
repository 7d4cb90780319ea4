package cluster_test

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

// TestGroupCommitAmortizesMirrorAndFsync is the group-commit
// effectiveness check on a full replicated slot with a durable log:
// 8 concurrent writers, every commit both mirrored and fsynced before
// its acknowledgment — yet the batch counters must show strictly fewer
// mirror round trips and strictly fewer fsyncs than commits (the
// amortization), while primary and backup still end byte-identical
// (batching never reorders or splices the stream).
func TestGroupCommitAmortizesMirrorAndFsync(t *testing.T) {
	dir := t.TempDir()
	// A small group-commit window makes the amortization deterministic:
	// without it, batching depends on commits colliding during the
	// previous batch's round trip, which a starved single-CPU host
	// (e.g. the full suite running package tests in parallel) can
	// serialize into one fsync per commit.
	cl, err := cluster.StartReplicated(1, 2, kvserver.Config{
		LogPath: dir, LogSync: true, GroupCommitInterval: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClient()
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				tx := c.Begin()
				tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("w%d-%d", w, i))))
				if err := tx.Commit(ctx); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	g := cl.Groups[0]
	if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
		t.Fatalf("after group-commit load: backup digest %x != primary digest %x", got, want)
	}
	const commits = workers * perWorker
	st := g.Primary.Store().Stats()
	if st.Commits+st.FastCommits != commits {
		t.Fatalf("commit counters %d+%d != %d", st.Commits, st.FastCommits, commits)
	}
	if st.MirrorBatches == 0 || st.MirrorBatches >= commits {
		t.Fatalf("mirror batches = %d for %d commits: no batching happened", st.MirrorBatches, commits)
	}
	if st.WALSyncs == 0 || st.WALSyncs >= commits {
		t.Fatalf("wal syncs = %d for %d commits under -log-sync: fsyncs not amortized", st.WALSyncs, commits)
	}
	if st.WALFailures != 0 {
		t.Fatalf("wal failures: %d", st.WALFailures)
	}
	t.Logf("commits=%d mirror_batches=%d (depth %.1f) wal_syncs=%d (%.2f fsync/commit)",
		commits, st.MirrorBatches, float64(st.MirrorBatchRecords)/float64(st.MirrorBatches),
		st.WALSyncs, float64(st.WALSyncs)/float64(commits))
}

// TestGroupCommitIsolatedPrimaryLosesNoAckedWrite blackholes the
// primary's outbound replication in the middle of a concurrent
// group-commit workload — batches in flight and queued records die
// unsent — then promotes the backup. The pinned guarantees:
//
//   - Zero acked-write loss: every commit acknowledged before or after
//     the partition is readable after the failover. An ack is only
//     ever issued once the record's batch was applied by the backup,
//     so the blackhole can strand records on the isolated primary but
//     never an acknowledged one.
//   - The isolated primary's stranded records (locally committed,
//     never acknowledged) make its stream HEAD run ahead of the new
//     epoch's: resyncing it as a backup never splices — the new
//     primary's sender pushes it a snapshot that discards them.
func TestGroupCommitIsolatedPrimaryLosesNoAckedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos drill (-short)")
	}
	cl, err := cluster.StartReplicated(1, 2, kvserver.Config{LeaseDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const workers = 8
	const writesPerWorker = 80
	const isolateAfter = 25 // on worker 0

	var mu sync.Mutex
	var acked []ackedWrite
	var uncertain, failed int
	var old *kvserver.Server
	var isolateOnce sync.Once
	var wg sync.WaitGroup
	// Every client is opened before any worker runs: the isolation
	// changes the cluster's membership, which NewClient reads.
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
				if w == 0 && i == isolateAfter {
					isolateOnce.Do(func() {
						o, err := cl.IsolatePrimary(0)
						if err != nil {
							t.Errorf("isolate primary: %v", err)
							return
						}
						old = o
					})
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
	if old == nil {
		t.Fatal("workload finished before the primary was isolated")
	}
	if len(acked) == 0 || failed+uncertain == 0 {
		t.Fatalf("degenerate run: acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)
	}
	t.Logf("acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)

	// Every acknowledged write survives on the new epoch's primary.
	verify, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	check := verify.Begin()
	defer check.Abort()
	for _, aw := range acked {
		v, err := check.Read(ctx, aw.oid)
		if err != nil || string(v.Data) != aw.val {
			t.Fatalf("acknowledged write %v=%q lost after failover: %v %v", aw.oid, aw.val, v, err)
		}
	}

	// Strand records on the isolated old primary until its stream head
	// is provably ahead of the new epoch's: direct store-level commits
	// bypass the epoch/lease gate, emit into its local stream, and then
	// fail awaiting replication (every batch dies unsent). None of
	// these records exist in the new epoch's stream.
	oldStore := old.Store()
	newPrimary := cl.Groups[0].Primary
	for txid := uint64(1 << 50); oldStore.ReplSeq() <= newPrimary.Store().ReplSeq()+2; txid++ {
		if _, err := oldStore.FastCommit(txid, oldStore.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, txid), Value: kv.NewPlain([]byte("stranded"))},
		}); err == nil {
			t.Fatal("isolated primary acknowledged a write")
		}
	}

	// Attaching the diverged old primary to the new one never mirrors
	// past its stranded records, which were never in the new epoch's
	// stream: its sender pushes it the new epoch's state instead.
	if err := newPrimary.Reconfigure(newPrimary.Store().Epoch()+1, append(newPrimary.Store().Members(), old.Addr())); err != nil {
		t.Fatalf("attach of diverged old primary: %v", err)
	}
	if got := oldStore.Stats().SnapshotsInstalled; got != 1 {
		t.Fatalf("diverged old primary installed %d snapshots, want 1: its history was spliced", got)
	}
	if got, want := oldStore.StateDigest(), newPrimary.Store().StateDigest(); got != want {
		t.Fatalf("after the push: old digest %x != new primary digest %x", got, want)
	}
}
