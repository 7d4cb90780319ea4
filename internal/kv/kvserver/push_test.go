package kvserver

// Tests of a snapshot pushed into a backup that has a write-ahead log:
// the install discards the records still queued for the backup's log and
// rotates the file onto the snapshot (installSnapshotLocked →
// discardWALLocked → wal.rotate), and the records mirrored after it
// append to the rotated file. A push cut mid-way is
// TestKillPrimaryMidSnapshotInstallNoAckedWriteLoss. The branch where the
// rotation fails before the new file is swapped in needs a file system
// that fails on demand, and is not covered here.

import (
	"errors"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"yesquel/internal/kv"
)

// pushIntoLoggedBackup builds a primary whose retained log no longer
// reaches an empty member — with committed history, a decided two-phase
// transaction and a prepared one — and a backup with a log at path that
// holds records of another stream, still queued for its log. It then
// attaches the backup, which the primary's membership lists, so its
// acks count; its sender pushes it the primary's state. The caller
// detaches the member and closes the backup's log.
func pushIntoLoggedBackup(t *testing.T, path string) (primary, backup *Store, pendingTx uint64) {
	t.Helper()
	SetSnapChunkBytes(t, 256)
	primary = NewStore(nil, Config{ReplicationLogMaxRecords: 8})
	primary.SetSelf("primary")
	if err := primary.InstallEpoch(2, []string{"primary", "backup"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		commitPut(t, primary, kv.MakeOID(0, uint64(i)), "history")
	}
	commitPut(t, primary, kv.MakeOID(0, 100), "decided")
	pendingTx = newTxID()
	if _, err := primary.Prepare(pendingTx, primary.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: kv.MakeOID(0, 101), Value: kv.NewPlain([]byte("pending"))},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	other := NewStore(nil, Config{})
	for i := 0; i < 5; i++ {
		commitPut(t, other, kv.MakeOID(0, uint64(200+i)), "other stream")
	}
	backup, err := OpenStore(nil, Config{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the backup's log flusher off, so the records of the other
	// stream are still queued for its log when the snapshot arrives.
	backup.pipe.flushMu.Lock()
	catchUp(t, backup, other)
	backup.pipe.mu.Lock()
	queued := len(backup.pipe.walQ)
	backup.pipe.mu.Unlock()
	if queued == 0 {
		t.Fatal("test premise: no record queued for the backup's log")
	}
	joined := primary.AttachMirrorMember("backup", backup.ApplyMirroredBatch)
	err = <-joined
	backup.pipe.flushMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := backup.Stats().SnapshotsInstalled; got != 1 {
		t.Fatalf("backup installed %d snapshots, want the pushed one", got)
	}
	return primary, backup, pendingTx
}

// txTables returns s's prepared transactions and decided table: each
// outcome and its commit timestamp (a snapshot does not carry the
// stream position a decision was recorded at).
func txTables(s *Store) (prepared []uint64, decided map[uint64]decision) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	for txid := range s.txs {
		prepared = append(prepared, txid)
	}
	slices.Sort(prepared)
	decided = make(map[uint64]decision, len(s.decided))
	for txid, d := range s.decided {
		decided[txid] = decision{commit: d.commit, commitTS: d.commitTS}
	}
	return prepared, decided
}

// sameReplica fails t unless got holds what want holds: the same state
// digest, stream head, prepared transactions and decided table.
func sameReplica(t *testing.T, got, want *Store) {
	t.Helper()
	if g, w := got.StateDigest(), want.StateDigest(); g != w {
		t.Fatalf("digest %x, want the primary's %x", g, w)
	}
	if g, w := got.ReplSeq(), want.ReplSeq(); g != w {
		t.Fatalf("head %d, want the primary's %d", g, w)
	}
	gp, gd := txTables(got)
	wp, wd := txTables(want)
	if !slices.Equal(gp, wp) {
		t.Fatalf("prepared transactions %v, want the primary's %v", gp, wp)
	}
	if !maps.Equal(gd, wd) {
		t.Fatalf("decided table of %d entries differs from the primary's %d", len(gd), len(wd))
	}
}

// TestPushedSnapshotRotatesBackupLog: a kill -9 right after a pushed
// snapshot's install leaves a log that replays to the primary's state —
// the records that were queued for the log at the install are gone, not
// written after the snapshot or before it.
func TestPushedSnapshotRotatesBackupLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backup.log")
	primary, backup, pendingTx := pushIntoLoggedBackup(t, path)
	defer backup.CloseLog()
	defer primary.DetachAllMirrorMembers()

	killed := path + ".killed"
	copyLog(t, path, killed)
	r, err := OpenStore(nil, Config{LogPath: killed})
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseLog()
	sameReplica(t, r, primary)
	if !r.IsLocked(kv.MakeOID(0, 101)) {
		t.Fatalf("prepared tx %d's lock did not survive the restart", pendingTx)
	}
}

// TestMirroredAfterPushReplayOnSnapshot: the commits mirrored to a
// backup after a pushed snapshot append to its rotated log, and a
// restart replays them on top of the snapshot — each once: the log
// holds the snapshot at the pushed position and exactly the records
// from there on.
func TestMirroredAfterPushReplayOnSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backup.log")
	primary, backup, _ := pushIntoLoggedBackup(t, path)
	pushedAt := backup.ReplSeq()
	for i := 0; i < 12; i++ {
		commitPut(t, primary, kv.MakeOID(1, uint64(i)), "after the push")
	}
	primary.DetachAllMirrorMembers()
	if err := backup.CloseLog(); err != nil {
		t.Fatal(err)
	}

	snap, recs, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Seq != pushedAt || uint64(len(recs)) != primary.ReplSeq()-pushedAt {
		t.Fatalf("log holds a snapshot at seq %d and %d records, want the push at %d and the %d records since",
			sn.Seq, len(recs), pushedAt, primary.ReplSeq()-pushedAt)
	}
	r, err := OpenStore(nil, Config{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseLog()
	sameReplica(t, r, primary)
}

// TestPushAtAdoptedEpochWithOtherMembersRefused: a deposed primary that
// installed the epoch number its group's winner took, for a group of
// its own, finds a member of the winner's group diverged and pushes it
// a snapshot. The member refuses the snapshot as it would the
// RecEpoch — same epoch, other members — and keeps its history, and
// the refusal carries the configuration it adopted.
func TestPushAtAdoptedEpochWithOtherMembersRefused(t *testing.T) {
	SetSnapChunkBytes(t, 64)
	backup := NewStore(nil, Config{})
	commitPut(t, backup, kv.MakeOID(0, 1), "acknowledged by the winner's group")
	backup.AdoptEpoch(3, []string{"winner", "backup"})
	deposed := NewStore(nil, Config{})
	for i := 0; i < 10; i++ {
		commitPut(t, deposed, kv.MakeOID(0, uint64(100+i)), "the deposed primary's")
	}
	if err := deposed.InstallEpoch(3, []string{"deposed", "backup", "other"}); err != nil {
		t.Fatal(err)
	}
	digest, head := backup.StateDigest(), backup.ReplSeq()

	err := <-deposed.AttachMirrorMember("backup", backup.ApplyMirroredBatch)
	deposed.DetachAllMirrorMembers()
	var we *kv.WrongEpochError
	if !errors.As(err, &we) || we.Epoch != 3 || !slices.Equal(we.Members, []string{"winner", "backup"}) {
		t.Fatalf("push answered %v, want a refusal carrying epoch 3 [winner backup]", err)
	}
	if deposed.Stats().SnapshotsServed == 0 {
		t.Fatal("test premise: the deposed primary pushed nothing")
	}
	if got := backup.Stats().SnapshotsInstalled; got != 0 {
		t.Fatalf("backup installed %d snapshots, want none", got)
	}
	if backup.StateDigest() != digest || backup.ReplSeq() != head {
		t.Fatal("the refused push changed the backup's state or head")
	}
	if got := backup.Members(); !slices.Equal(got, []string{"winner", "backup"}) {
		t.Fatalf("backup's members %v, want the adopted [winner backup]", got)
	}
}

// TestSnapshotChunkMustExtendThePush: a chunk whose offset or snapshot
// seq does not continue the push in progress — a piece of an abandoned
// push arriving late — is refused and changes nothing, and the push it
// arrived in still installs.
func TestSnapshotChunkMustExtendThePush(t *testing.T) {
	primary := NewStore(nil, Config{})
	for i := 0; i < 10; i++ {
		commitPut(t, primary, kv.MakeOID(0, uint64(i)), "history")
	}
	primary.repMu.Lock()
	sn := primary.captureSnapshotLocked()
	primary.repMu.Unlock()
	var pieces [][]byte
	var offs []uint64
	var off uint64
	if err := encodeSnapshot(sn, 64, func(p []byte) error {
		pieces, offs = append(pieces, slices.Clone(p)), append(offs, off)
		off += uint64(len(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pieces) < 3 {
		t.Fatalf("test premise: %d pieces, want at least 3", len(pieces))
	}
	backup := NewStore(nil, Config{})
	chunk := func(from uint64, i int) error {
		return backup.ApplyMirroredBatch(&kv.MirrorBatchReq{From: from, Epoch: sn.Epoch, Off: offs[i], Snap: pieces[i]})
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, kv.ErrBadRequest) {
			t.Fatalf("%s: %v, want ErrBadRequest", what, err)
		}
	}

	// An abandoned push: two chunks, then the sender's next probe.
	for i := 0; i < 2; i++ {
		if err := chunk(sn.Seq, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := backup.ApplyMirroredBatch(&kv.MirrorBatchReq{From: backup.ReplSeq(), Epoch: sn.Epoch}); err != nil {
		t.Fatal(err)
	}
	refused("late chunk after a probe", chunk(sn.Seq, 2))

	// The next push, with the late piece and a piece of another
	// snapshot arriving in the middle of it.
	for i := range pieces {
		if err := chunk(sn.Seq, i); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			refused("late chunk mid-push", chunk(sn.Seq, 1))
			refused("chunk of another snapshot", chunk(sn.Seq+1, 2))
		}
	}
	if err := backup.ApplyMirroredBatch(&kv.MirrorBatchReq{From: sn.Seq, Epoch: sn.Epoch, Off: off, Last: true}); err != nil {
		t.Fatal(err)
	}
	if got := backup.Stats().SnapshotsInstalled; got != 1 {
		t.Fatalf("backup installed %d snapshots, want 1", got)
	}
	sameReplica(t, backup, primary)
}
