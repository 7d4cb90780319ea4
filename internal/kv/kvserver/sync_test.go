package kvserver_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// writeBatch commits n transactions with a mix of op shapes through c.
func writeBatch(t *testing.T, c *kvclient.Client, tag string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		tx := c.Begin()
		switch i % 4 {
		case 0:
			tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("%s-%d", tag, i))))
		case 1:
			oid := c.NewOID(0)
			tx.ListAdd(oid, []byte("cell"), []byte(tag))
			tx.AttrSet(oid, 1, uint64(i))
		case 2:
			oid := c.NewOID(0)
			tx.Put(oid, kv.NewPlain([]byte("doomed")))
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			tx = c.Begin()
			tx.Delete(oid)
		case 3:
			tx.SetBounds(c.NewOID(0), []byte("lo"), []byte("hi"))
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncRebuildsBackupByteForByte covers the catch-up path: a backup
// dies, the primary keeps committing alone, and a fresh backup catches
// up through its mirror until its multi-version state digests equal the
// primary's — then live mirroring keeps them equal.
func TestSyncRebuildsBackupByteForByte(t *testing.T) {
	primary := startServer(t)
	backup1 := startServer(t)
	formGroup(t, primary, backup1)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writeBatch(t, c, "before", 20)

	// Backup dies; the operator drops it and the primary serves alone.
	backup1.Close()
	dropBackups(t, primary)
	writeBatch(t, c, "alone", 20)

	// A fresh backup re-forms the pair: the attach returns once the
	// mirror has sent it the missed history, then the epoch bump admits
	// it.
	backup2 := startServer(t)
	formGroup(t, primary, backup2)
	if got, want := backup2.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after sync: backup digest %x != primary digest %x", got, want)
	}
	if got, want := backup2.Store().ReplSeq(), primary.Store().ReplSeq(); got != want {
		t.Fatalf("after sync: backup seq %d != primary seq %d", got, want)
	}

	// The re-formed pair mirrors live commits again.
	writeBatch(t, c, "after", 20)
	if got, want := backup2.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after live mirroring: backup digest %x != primary digest %x", got, want)
	}

	// And the rebuilt backup serves the data to a failover client.
	oid := c.NewOID(0)
	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("visible")))
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	failOver(t, primary, backup2)
	c2, err := kvclient.Open([]string{backup2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check := c2.Begin()
	defer check.Abort()
	if v, err := check.Read(context.Background(), oid); err != nil || string(v.Data) != "visible" {
		t.Fatalf("read on rebuilt backup: %v %v", v, err)
	}
}

// TestSyncCarriesPreparedState: a backup re-formed mid-2PC receives
// the in-flight prepared transaction through the catch-up — not just
// committed history — so a subsequent failover can still apply the
// coordinator's decision.
func TestSyncCarriesPreparedState(t *testing.T) {
	primary := startServer(t)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeBatch(t, c, "history", 8)

	// An in-flight two-phase transaction: prepared, not yet decided.
	store := primary.Store()
	oid := kv.MakeOID(0, 999)
	txid := uint64(1 << 40)
	proposed, err := store.Prepare(txid, store.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("mid-2pc"))},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh backup re-forms the pair while the prepare is pending.
	backup := startServer(t)
	formGroup(t, primary, backup)
	if !backup.Store().IsLocked(oid) {
		t.Fatal("catch-up did not carry the prepared transaction's lock")
	}

	// The decision mirrors to the re-formed backup like any record.
	if err := store.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	if backup.Store().IsLocked(oid) {
		t.Fatal("mirrored decision did not release the backup's lock")
	}
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after mid-2PC catch-up: backup digest %x != primary digest %x", got, want)
	}
	if known, committed := backup.Store().Decided(txid); !known || !committed {
		t.Fatalf("backup decision table: known=%v committed=%v", known, committed)
	}
}

// TestMirrorGapFailsLoudly: attaching an empty backup to a primary
// with history fills the gap through the mirror, and the backup ends
// byte-identical. A backup ahead of the primary's stream, or whose
// record below its head is not the primary's, is refused loudly with
// kv.ErrDiverged and keeps its own stream.
func TestMirrorGapFailsLoudly(t *testing.T) {
	primary := startServer(t)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeBatch(t, c, "history", 8)

	stale := startServer(t)
	if err := primary.AttachBackupMember(stale.Addr()); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("x")))
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatalf("commit mirrored to a caught-up backup: %v", err)
	}
	if got, want := stale.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after the gap was filled: backup digest %x != primary digest %x", got, want)
	}
	primary.DetachBackupMember(stale.Addr())

	for _, tc := range []struct {
		name    string
		records int
	}{
		{"ahead", 40},
		{"diverged", 2},
	} {
		other := startServer(t)
		oc, err := kvclient.Open([]string{other.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		writeBatch(t, oc, tc.name, tc.records)
		oc.Close()
		head := other.Store().ReplSeq()
		err = primary.AttachBackupMember(other.Addr())
		if !errors.Is(err, kv.ErrDiverged) || !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("%s backup: attach returned %v, want kv.ErrDiverged", tc.name, err)
		}
		if got := other.Store().ReplSeq(); got != head {
			t.Fatalf("%s backup moved from seq %d to %d", tc.name, head, got)
		}
	}
}

// TestAttachedBackupHoldsAckedWrite: a backup attached to a primary
// with history counts toward the quorum only for records it holds, so a
// commit right after the attach is acknowledged only once the backup
// holds it. When the primary then dies, the promoted backup serves the
// write.
func TestAttachedBackupHoldsAckedWrite(t *testing.T) {
	primary := startServer(t)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	writeBatch(t, c, "history", 8)

	backup := startServer(t)
	if err := primary.AttachBackupMember(backup.Addr()); err != nil {
		t.Fatal(err)
	}
	oid := c.NewOID(0)
	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("acked")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	failOver(t, primary, backup)
	c2, err := kvclient.Open([]string{backup.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check := c2.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oid); err != nil || string(v.Data) != "acked" {
		t.Fatalf("acknowledged write after promotion: %v %v", v, err)
	}
}

// TestMirrorDetectsDivergedBackup pins the split-brain guard on the
// other side: a backup whose stream holds a record the primary never
// sent is ahead of the primary's stream. The next mirrored commit must
// fail loudly instead of being acknowledged and silently dropped.
func TestMirrorDetectsDivergedBackup(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("replicated")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// A write lands natively in the backup's store (the RPC boundary
	// turns clients away; only a bug or an operator error gets here):
	// its stream head advances past the primary's.
	bs := backup.Store()
	if _, err := bs.FastCommit(1<<40, bs.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: kv.MakeOID(0, 424242), Value: kv.NewPlain([]byte("split-brain"))},
	}); err != nil {
		t.Fatal(err)
	}

	// The primary's next commit mirrors a sequence number the backup
	// already consumed — it must be rejected, failing the commit.
	tx = c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("rejected")))
	err = tx.Commit(ctx)
	if err == nil {
		t.Fatal("commit mirrored into a diverged backup succeeded")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence should be named, got: %v", err)
	}
}

// TestDefaultStoreAcceptsMidLifeBackup: a store opened with the zero
// Config, with history nobody asked it to keep for anyone, takes a
// backup mid-life — by record replay while its retained tail still
// reaches back to the joiner's position, and through state transfer
// once the tail has been truncated past it. A backup that copied the
// primary's state (yesqueld -sync-from) and fell behind by four commits
// before the primary formed the group is caught up by the mirror. A
// joining backup is a learner: commits running on the primary while it
// is refused, rebuilt and caught up all succeed.
func TestDefaultStoreAcceptsMidLifeBackup(t *testing.T) {
	for _, tc := range []struct {
		name     string
		truncate bool
		transfer bool
		beside   bool // commits run while the backup joins and the epoch bump installs it
	}{
		{"tail replay", false, false, false},
		{"tail too short: state transfer", true, false, false},
		{"state transfer, then four commits before FormGroup", false, true, false},
		{"commits beside a behind-the-log backup's join", true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary := startServer(t) // NewStore(nil, Config{})
			store := primary.Store()
			c, err := kvclient.Open([]string{primary.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			writeBatch(t, c, "history", 20)
			if tc.truncate {
				if _, err := store.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				writeBatch(t, c, "tail", 4)
			}

			backup := startServer(t)
			if tc.transfer {
				if err := backup.StateTransferFrom(primary.Addr()); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					tx := c.Begin()
					tx.Put(c.NewOID(0), kv.NewPlain([]byte("behind")))
					if err := tx.Commit(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := primary.FormGroup([]string{backup.Addr()}); err != nil {
					t.Fatal(err)
				}
			} else if tc.beside {
				besideCommits(t, c, func() {
					if err := kvserver.Join(primary, backup); err != nil {
						t.Fatal(err)
					}
					if _, err := primary.BumpEpoch([]string{primary.Addr(), backup.Addr()}); err != nil {
						t.Fatal(err)
					}
				})
			} else {
				formGroup(t, primary, backup)
			}
			if got, want := backup.Store().StateDigest(), store.StateDigest(); got != want {
				t.Fatalf("after join: backup digest %x != primary digest %x", got, want)
			}
			if got := backup.Store().Stats().SnapshotsInstalled; (got > 0) != (tc.truncate || tc.transfer) {
				t.Fatalf("backup installed %d snapshots, truncated tail = %v", got, tc.truncate)
			}
			writeBatch(t, c, "mirrored", 8)
			if got, want := backup.Store().StateDigest(), store.StateDigest(); got != want {
				t.Fatalf("after live mirroring: backup digest %x != primary digest %x", got, want)
			}
		})
	}
}

// besideCommits runs f while four writers commit through c, and fails
// the test if any commit fails. Each writer has committed once before f
// starts, and all have stopped when it returns.
func besideCommits(t *testing.T, c *kvclient.Client, f func()) {
	t.Helper()
	const writers = 4
	stop := make(chan struct{})
	errs := make(chan error, writers)
	var started, done sync.WaitGroup
	started.Add(writers)
	done.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer done.Done()
			for n := 0; ; n++ {
				tx := c.Begin()
				tx.Put(c.NewOID(0), kv.NewPlain([]byte("beside")))
				err := tx.Commit(context.Background())
				if n == 0 {
					started.Done()
				}
				if err != nil {
					errs <- err
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	defer func() {
		close(stop)
		done.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("commit beside the change: %v", err)
		}
	}()
	f()
}
