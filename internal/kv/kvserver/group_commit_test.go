package kvserver_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// TestGroupCommitConcurrentWritersMirrorExactly drives a
// primary-backup pair with concurrent writers through the group-commit
// pipeline and pins the stream invariant batching must not bend: after
// every write is acknowledged, primary and backup hold byte-identical
// state (batching may coalesce round trips, but it must never reorder
// or splice the stream).
func TestGroupCommitConcurrentWritersMirrorExactly(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := kvclient.Open([]string{primary.Addr()})
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

	// Every commit was acknowledged, so every record's batch was
	// applied on the backup before the ack: the replicas must agree
	// byte for byte, with the streams at the same head.
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after concurrent group-commit load: backup digest %x != primary digest %x", got, want)
	}
	if got, want := backup.Store().ReplSeq(), primary.Store().ReplSeq(); got != want {
		t.Fatalf("backup stream head %d != primary %d", got, want)
	}
	st := primary.Store().Stats()
	if st.MirrorBatches == 0 {
		t.Fatal("no mirror batches recorded on the group-commit path")
	}
	t.Logf("commits=%d mirror batches=%d (depth %.1f)",
		workers*perWorker, st.MirrorBatches, float64(st.MirrorBatchRecords)/float64(st.MirrorBatches))
}

// TestGroupCommitDeadBackupNeverFalseAcks kills the backup under
// concurrent write load and pins the watermark ack rule: from the
// moment the backup is gone, no commit is acknowledged — a waiter may
// only succeed when its record's batch was applied by the backup, so
// every attempt must surface an error (the client treats it as
// uncertain). Dropping the dead backup from the group restores solo
// service.
func TestGroupCommitDeadBackupNeverFalseAcks(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()

	// Concurrent load first, so the kill lands mid-pipeline rather
	// than on an idle pair.
	const workers = 4
	const perWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := kvclient.Open([]string{primary.Addr()})
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
	// Quiescent and fully acknowledged: the replicas agree.
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("pre-kill digests differ: %x != %x", got, want)
	}

	backup.Close()

	// The dark window: every commit attempt must fail — the backup can
	// never apply these records, so acking any of them would be a lost
	// acked write waiting to happen.
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		tx := c.Begin()
		tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("dark-%d", i))))
		if err := tx.Commit(ctx); err == nil {
			t.Fatalf("commit %d acknowledged with a dead backup", i)
		}
	}

	// Operator drops the dead backup: replication is no longer a
	// requirement, and the primary serves alone again.
	dropBackups(t, primary)
	oid := c.NewOID(0)
	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("solo")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit after detaching dead backup: %v", err)
	}
	check := c.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oid); err != nil || string(v.Data) != "solo" {
		t.Fatalf("solo write not readable: %v %v", v, err)
	}
}
