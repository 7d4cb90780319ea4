package kvserver_test

// Tests for the bounded replication log: snapshot checkpoints, log
// truncation, state-transfer resync, WAL checkpoint rotation, and the
// diverged-ahead guard.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// startBoundedReplServer launches a kvserver whose replication log
// truncates at maxRecords, with small snapshot chunks so transfers
// exercise the multi-chunk path.
func startBoundedReplServer(t *testing.T, maxRecords int) *kvserver.Server {
	t.Helper()
	kvserver.SetSnapChunkBytes(t, 512)
	srv := kvserver.NewServer(kvserver.NewStore(nil, kvserver.Config{
		ReplicationLogMaxRecords: maxRecords,
	}))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestCheckpointBoundsReplicationLog is the acceptance bound: under
// sustained writes with ReplicationLogMaxRecords set, the in-memory
// log length never exceeds the cap (the emit paths truncate inline,
// not on a sweeper's schedule).
func TestCheckpointBoundsReplicationLog(t *testing.T) {
	const max = 32
	st := kvserver.NewStore(nil, kvserver.Config{ReplicationLogMaxRecords: max})
	for i := 0; i < 10*max; i++ {
		oid := kv.MakeOID(0, uint64(i))
		if _, err := st.FastCommit(uint64(i+1), st.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte(fmt.Sprintf("v%d", i)))},
		}); err != nil {
			t.Fatal(err)
		}
		if base, head := st.LogBounds(); head-base > max {
			t.Fatalf("after %d commits the log holds %d records (max %d)", i+1, head-base, max)
		}
	}
	stats := st.Stats()
	if stats.Checkpoints == 0 || stats.LogRecordsTruncated == 0 {
		t.Fatalf("sustained writes never checkpointed: checkpoints=%d truncated=%d", stats.Checkpoints, stats.LogRecordsTruncated)
	}
	base, head := st.LogBounds()
	if base == 0 || head != 10*max {
		t.Fatalf("log bounds [%d, %d), want base > 0 and head %d", base, head, 10*max)
	}
}

// TestCheckpointBoundsReplicationLogBytes covers the byte-measured
// policy: a log of large records truncates long before any record
// count would trip.
func TestCheckpointBoundsReplicationLogBytes(t *testing.T) {
	kvserver.SetLogMaxBytes(t, 4096)
	st := kvserver.NewStore(nil, kvserver.Config{})
	big := make([]byte, 1024)
	for i := 0; i < 64; i++ {
		if _, err := st.FastCommit(uint64(i+1), st.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, uint64(i)), Value: kv.NewPlain(big)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := st.Stats(); stats.Checkpoints == 0 {
		t.Fatal("byte-bounded log never checkpointed")
	}
	if base, head := st.LogBounds(); head-base > 8 {
		t.Fatalf("byte-bounded log retains %d one-KiB records", head-base)
	}
}

// TestMirroredBackupLogStaysBounded: a live-mirror backup appends
// every mirrored record to its own replication log; its bound is
// enforced by the server's checkpoint ticker plus a hard inline
// ceiling at mirrorCheckpointSlack (4x) — sustained mirrored writes
// must not grow it past that ceiling.
func TestMirroredBackupLogStaysBounded(t *testing.T) {
	const max = 16
	primary := startBoundedReplServer(t, max)
	backup := startBoundedReplServer(t, max)
	formGroup(t, primary, backup)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		tx := c.Begin()
		tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("m%d", i))))
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if base, head := backup.Store().LogBounds(); head-base > 4*max {
			t.Fatalf("after %d mirrored commits the backup log holds %d records (hard ceiling %d)", i+1, head-base, 4*max)
		}
	}
	if st := backup.Store().Stats(); st.Checkpoints == 0 {
		t.Fatal("mirrored backup never checkpointed")
	}
}

// TestSnapshotResyncByteForByte is the state-transfer half of the
// acceptance criteria: a backup whose requested seq predates the
// truncated log catches up via snapshot + tail to an identical
// StateDigest, and live mirroring continues on top of the installed
// snapshot.
func TestSnapshotResyncByteForByte(t *testing.T) {
	primary := startBoundedReplServer(t, 16)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writeBatch(t, c, "history", 40)
	if base, _ := primary.Store().LogBounds(); base == 0 {
		t.Fatal("history did not trigger truncation; the test needs the snapshot path")
	}

	// Fresh backup at seq 0: its position predates logBase, so SyncFrom
	// must fall back to install-snapshot-then-tail.
	backup := startServer(t)
	formGroup(t, primary, backup)
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after snapshot resync: backup digest %x != primary digest %x", got, want)
	}
	if got, want := backup.Store().ReplSeq(), primary.Store().ReplSeq(); got != want {
		t.Fatalf("after snapshot resync: backup seq %d != primary seq %d", got, want)
	}
	if st := backup.Store().Stats(); st.SnapshotsInstalled != 1 {
		t.Fatalf("backup installed %d snapshots, want 1", st.SnapshotsInstalled)
	}
	if st := primary.Store().Stats(); st.SnapshotsServed == 0 {
		t.Fatal("primary served no snapshot")
	}

	// Live mirroring stacks on the installed state.
	writeBatch(t, c, "after", 10)
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after live mirroring: backup digest %x != primary digest %x", got, want)
	}

	// And the rebuilt backup serves the data to a failover client.
	oid := c.NewOID(0)
	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("visible")))
	if err := tx.Commit(context.Background()); err != nil {
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
	if v, err := check.Read(context.Background(), oid); err != nil || string(v.Data) != "visible" {
		t.Fatalf("read on snapshot-rebuilt backup: %v %v", v, err)
	}
}

// TestSnapshotCarriesPreparedAndDecidedState: a checkpoint can bury an
// in-flight prepare (and a decided outcome) below logBase; the
// snapshot must carry both, so a snapshot-built backup still holds the
// staged locks for the coordinator's decision and still answers a
// retried phase-two request from its decided table.
func TestSnapshotCarriesPreparedAndDecidedState(t *testing.T) {
	primary := startBoundedReplServer(t, 8)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeBatch(t, c, "history", 10)

	store := primary.Store()
	// A decided two-phase transaction...
	decidedOID := kv.MakeOID(0, 111111)
	decidedTx := uint64(1<<40 + 1)
	proposed, err := store.Prepare(decidedTx, store.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: decidedOID, Value: kv.NewPlain([]byte("done"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(decidedTx, proposed); err != nil {
		t.Fatal(err)
	}
	// ...and an undecided one, both forced below logBase by an explicit
	// checkpoint.
	pendingOID := kv.MakeOID(0, 222222)
	pendingTx := uint64(1<<40 + 2)
	pendingTS, err := store.Prepare(pendingTx, store.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: pendingOID, Value: kv.NewPlain([]byte("mid-2pc"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	ckptSeq, err := store.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := store.LogBounds(); base != ckptSeq {
		t.Fatalf("logBase %d after checkpoint at %d", base, ckptSeq)
	}

	backup := startServer(t)
	formGroup(t, primary, backup)
	if !backup.Store().IsLocked(pendingOID) {
		t.Fatal("snapshot did not carry the prepared transaction's lock")
	}
	if known, committed := backup.Store().Decided(decidedTx); !known || !committed {
		t.Fatalf("snapshot decided table: known=%v committed=%v", known, committed)
	}
	// The coordinator's decision mirrors to the snapshot-built backup
	// like any record and releases the staged lock there.
	if err := store.Commit(pendingTx, pendingTS); err != nil {
		t.Fatal(err)
	}
	if backup.Store().IsLocked(pendingOID) {
		t.Fatal("mirrored decision did not release the backup's lock")
	}
	if got, want := backup.Store().StateDigest(), primary.Store().StateDigest(); got != want {
		t.Fatalf("after decision: backup digest %x != primary digest %x", got, want)
	}
}

// TestSyncFromRejectsDivergedAheadBackup pins the loud-failure
// satellite: a backup that is AHEAD of its sync source (it applied
// records the source never emitted) must fail resync with a typed
// divergence error — the old behavior returned an empty batch and the
// backup reported resync complete over irreconcilable histories.
func TestSyncFromRejectsDivergedAheadBackup(t *testing.T) {
	primary := startServer(t)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeBatch(t, c, "short", 3)

	diverged := startServer(t)
	c2, err := kvclient.Open([]string{diverged.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	writeBatch(t, c2, "longer", 10)

	diverged.Store().StartResync()
	err = diverged.SyncFrom(primary.Addr(), 0)
	if err == nil {
		t.Fatal("resync of an ahead-of-source backup reported success")
	}
	if !errors.Is(err, kv.ErrDiverged) {
		t.Fatalf("want kv.ErrDiverged, got: %v", err)
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence should be named: %v", err)
	}
}

// TestWALCheckpointRestartReplaysSnapshotPlusTail: after a checkpoint
// rotates the write-ahead log, a restart rebuilds the identical store
// from the snapshot frame plus the record tail — not the full history
// — and keeps appending to the rotated log.
func TestWALCheckpointRestartReplaysSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	cfg := kvserver.Config{LogPath: dir + "/wal.log"}
	st, err := kvserver.OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(s *kvserver.Store, tx, i uint64, val string) {
		t.Helper()
		if _, err := s.FastCommit(tx, s.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, i), Value: kv.NewPlain([]byte(val))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 20; i++ {
		put(st, i+1, i, fmt.Sprintf("pre-%d", i))
	}
	ckptSeq, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(20); i < 30; i++ {
		put(st, i+1, i, fmt.Sprintf("tail-%d", i))
	}
	digest, seq := st.StateDigest(), st.ReplSeq()
	if err := st.CloseLog(); err != nil {
		t.Fatal(err)
	}

	st2, err := kvserver.OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.StateDigest(); got != digest {
		t.Fatalf("restart digest %x != pre-restart %x", got, digest)
	}
	if got := st2.ReplSeq(); got != seq {
		t.Fatalf("restart seq %d != pre-restart %d", got, seq)
	}
	if base, _ := st2.LogBounds(); base != ckptSeq {
		t.Fatalf("restart logBase %d != checkpoint seq %d", base, ckptSeq)
	}
	if stats := st2.Stats(); stats.SnapshotsInstalled != 1 {
		t.Fatalf("restart installed %d snapshots, want 1", stats.SnapshotsInstalled)
	}
	// The rotated log keeps accepting appends across another restart.
	put(st2, 31, 99, "post-restart")
	st2.CloseLog()
	st3, err := kvserver.OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.CloseLog()
	if v, _, err := st3.Read(kv.MakeOID(0, 99), st3.Clock().Now()); err != nil || string(v.Data) != "post-restart" {
		t.Fatalf("post-rotation append lost: %v %v", v, err)
	}
}

// TestKillPrimaryMidSnapshotInstallNoAckedWriteLoss is the chaos
// drill: the primary dies while a joining backup is mid-way through
// installing its state snapshot. The half-fed backup must fail its
// resync loudly (it is NOT a usable replica), and every acknowledged
// write must still be readable once the primary restarts from its
// checkpoint-rotated WAL.
func TestKillPrimaryMidSnapshotInstallNoAckedWriteLoss(t *testing.T) {
	kvserver.SetSnapChunkBytes(t, 256)
	dir := t.TempDir()
	pcfg := kvserver.Config{
		LogPath:                  dir + "/primary.log",
		ReplicationLogMaxRecords: 8,
	}
	pstore, err := kvserver.OpenStore(nil, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	primary := kvserver.NewServer(pstore)
	if err := primary.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go primary.Serve()

	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	acked := make(map[kv.OID]string, 60)
	for i := 0; i < 60; i++ {
		oid := c.NewOID(0)
		val := fmt.Sprintf("acked-%d", i)
		tx := c.Begin()
		tx.Put(oid, kv.NewPlain([]byte(val)))
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		acked[oid] = val
	}
	c.Close()
	digestBefore := pstore.StateDigest()
	if base, _ := pstore.LogBounds(); base == 0 {
		t.Fatal("no truncation happened; the test needs the snapshot path")
	}

	backup := kvserver.NewServer(kvserver.NewStore(nil, kvserver.Config{}))
	if err := backup.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go backup.Serve()
	t.Cleanup(func() { backup.Close() })
	killed := false
	backup.TestHookSnapChunk = func(chunk uint32) {
		if chunk == 1 {
			primary.Close() // the source dies mid-transfer
			killed = true
		}
	}
	backup.Store().StartResync()
	watermark, err := primary.AttachBackupMember(backup.Addr())
	if err != nil {
		t.Fatal(err)
	}
	err = backup.SyncFrom(primary.Addr(), watermark)
	if err == nil {
		t.Fatal("resync against a primary killed mid-snapshot reported success")
	}
	if !killed {
		t.Fatal("snapshot fit one chunk; shrink the snapshot chunk so the kill lands mid-transfer")
	}
	// The half-fed backup installed nothing: its stream is untouched.
	if got := backup.Store().ReplSeq(); got != 0 {
		t.Fatalf("aborted install advanced the backup to seq %d", got)
	}

	// Recovery: the primary restarts from its checkpoint-rotated WAL
	// with every acknowledged write intact.
	pstore.CloseLog()
	rstore, err := kvserver.OpenStore(nil, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rstore.StateDigest(); got != digestBefore {
		t.Fatalf("restart digest %x != pre-kill digest %x: acked state lost", got, digestBefore)
	}
	rsrv := kvserver.NewServer(rstore)
	if err := rsrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve()
	t.Cleanup(func() { rsrv.Close(); rstore.CloseLog() })
	c2, err := kvclient.Open([]string{rsrv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check := c2.Begin()
	defer check.Abort()
	for oid, want := range acked {
		v, err := check.Read(ctx, oid)
		if err != nil || string(v.Data) != want {
			t.Fatalf("acked write %v lost after mid-install kill: %v %v", oid, v, err)
		}
	}

	// And a fresh resync from the recovered primary completes.
	backup2 := startServer(t)
	formGroup(t, rsrv, backup2)
	if got, want := backup2.Store().StateDigest(), rstore.StateDigest(); got != want {
		t.Fatalf("post-recovery resync digest %x != primary %x", got, want)
	}
}
