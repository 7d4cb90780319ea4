package kvserver_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
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

// TestSyncRebuildsBackupByteForByte covers the resync path: a backup
// dies, the primary keeps committing alone, and a fresh backup catches
// up via MethodSync until its multi-version state digests equal the
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

	// A fresh backup re-forms the pair: resync mode first, then attach
	// (so live commits buffer), then stream the missed history, then the
	// epoch bump that admits it.
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
// the in-flight prepared transaction through the resync stream — not
// just committed history — so a subsequent failover can still apply
// the coordinator's decision.
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
		t.Fatal("resync did not carry the prepared transaction's lock")
	}

	// The decision mirrors to the re-formed backup like any record.
	if err := store.Commit(txid, proposed); err != nil {
		t.Fatal(err)
	}
	if backup.Store().IsLocked(oid) {
		t.Fatal("mirrored decision did not release the backup's lock")
	}
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after mid-2PC resync: backup digest %x != primary digest %x", got, want)
	}
	if known, committed := backup.Store().Decided(txid); !known || !committed {
		t.Fatalf("backup decision table: known=%v committed=%v", known, committed)
	}
}

// TestMirrorGapFailsLoudly pins the divergence guard: attaching a
// stale, empty backup to a primary with history (without a resync)
// must fail the primary's next commit instead of silently mirroring a
// stream with a gap.
func TestMirrorGapFailsLoudly(t *testing.T) {
	primary := startServer(t)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeBatch(t, c, "history", 8)

	stale := startServer(t)
	if _, err := primary.AttachBackupMember(stale.Addr()); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("x")))
	err = tx.Commit(context.Background())
	if err == nil {
		t.Fatal("commit mirrored into a gapped backup succeeded")
	}
	if !strings.Contains(err.Error(), "resync") {
		t.Fatalf("gap error should demand a resync, got: %v", err)
	}
	// The stale backup stayed empty rather than diverging.
	if stale.Store().ReplSeq() != 0 {
		t.Fatalf("stale backup applied %d records", stale.Store().ReplSeq())
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
// reaches back to the joiner's position, and through the state-transfer
// fallback once the tail has been truncated past it.
func TestDefaultStoreAcceptsMidLifeBackup(t *testing.T) {
	for _, tc := range []struct {
		name     string
		truncate bool
	}{
		{"tail replay", false},
		{"tail too short: state transfer", true},
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
			formGroup(t, primary, backup) // attach → SyncFrom → BumpEpoch
			if got, want := backup.Store().StateDigest(), store.StateDigest(); got != want {
				t.Fatalf("after join: backup digest %x != primary digest %x", got, want)
			}
			if got := backup.Store().Stats().SnapshotsInstalled; (got > 0) != tc.truncate {
				t.Fatalf("backup installed %d snapshots, truncated tail = %v", got, tc.truncate)
			}
			writeBatch(t, c, "mirrored", 8)
			if got, want := backup.Store().StateDigest(), store.StateDigest(); got != want {
				t.Fatalf("after live mirroring: backup digest %x != primary digest %x", got, want)
			}
		})
	}
}
