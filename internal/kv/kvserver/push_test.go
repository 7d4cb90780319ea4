package kvserver

// Tests of a snapshot pushed into a backup that has a write-ahead log:
// the install drops the records its log does not hold yet, moving the
// log's cursor to the snapshot, and rotates the file onto the snapshot
// (installSnapshotLocked → wal.rotate), and the records mirrored after it
// append to the rotated file. A push cut mid-way is
// TestKillPrimaryMidSnapshotInstallNoAckedWriteLoss. The branch where the
// rotation fails before the new file is swapped in needs a file system
// that fails on demand, and is not covered here.

import (
	"errors"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"yesquel/internal/kv"
)

// pushIntoLoggedBackup builds a primary whose retained log no longer
// reaches an empty member — with committed history, a decided two-phase
// transaction and a prepared one — and a backup with a log at path that
// holds records of another stream, not yet written to its log. It then
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
	// Apply the other stream's records as a mirror handler does before
	// its log write, so they are past the backup's log cursor when the
	// snapshot arrives.
	recs, err := retainedRecords(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	backup.repMu.Lock()
	err = backup.applyBatchLocked(&kv.MirrorBatchReq{Epoch: other.Epoch(), Recs: recs})
	backup.repMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	backup.pipe.mu.Lock()
	unwritten := backup.repSeq - backup.pipe.walCursor
	backup.pipe.mu.Unlock()
	if unwritten == 0 {
		t.Fatal("test premise: every record of the backup's stream is in its log")
	}
	joined := primary.AttachMirrorMember("backup", backup.ApplyMirroredBatch)
	if err := <-joined; err != nil {
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
// the records its log did not hold yet at the install are gone, not
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

// waitCaughtUp waits until dst holds src's whole stream and state.
func waitCaughtUp(t *testing.T, dst, src *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for dst.ReplSeq() != src.ReplSeq() || dst.StateDigest() != src.StateDigest() {
		if time.Now().After(deadline) {
			t.Fatalf("member at seq %d, primary at %d: not caught up", dst.ReplSeq(), src.ReplSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// stallOnce is a member's send that stalls the first request gate
// selects until release is closed, closing stalled once it is held.
func stallOnce(dst *Store, gate func(*kv.MirrorBatchReq) bool) (send func(*kv.MirrorBatchReq) error, stalled, release chan struct{}) {
	stalled, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	send = func(req *kv.MirrorBatchReq) error {
		if gate(req) {
			once.Do(func() {
				close(stalled)
				<-release
			})
		}
		return dst.ApplyMirroredBatch(req)
	}
	return send, stalled, release
}

// TestLaggingMemberPushedSnapshot: a member whose batch stalls while
// the primary commits past its retained-tail bound is passed by the
// truncation. The primary keeps nothing for it below the tail — the
// tail stays within its bound, the one copy of the stream — so once the
// stalled batch lands, the member's sender pushes it a snapshot rather
// than replaying records the primary no longer holds, and it ends
// byte-identical.
func TestLaggingMemberPushedSnapshot(t *testing.T) {
	const bound = 8
	primary := NewStore(nil, Config{ReplicationLogMaxRecords: bound})
	primary.SetSelf("p")
	if err := primary.InstallEpoch(2, []string{"p", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	a, b := NewStore(nil, Config{}), NewStore(nil, Config{})
	sendB, stalled, release := stallOnce(b, func(req *kv.MirrorBatchReq) bool { return len(req.Recs) > 0 })
	if err := <-primary.AttachMirrorMember("a", a.ApplyMirroredBatch); err != nil {
		t.Fatal(err)
	}
	joinedB := primary.AttachMirrorMember("b", sendB)
	defer primary.DetachAllMirrorMembers()
	<-stalled
	for i := 0; i < 5*bound; i++ {
		commitPut(t, primary, kv.MakeOID(0, uint64(i)), "past the bound")
	}
	base, head := primary.LogBounds()
	primary.pipe.mu.Lock()
	next := primary.pipe.core.members[1].next
	primary.pipe.mu.Unlock()
	if head-base > bound || next >= base {
		t.Fatalf("retained tail [%d,%d), lagging member at %d: want at most %d records, the member passed", base, head, next, bound)
	}
	close(release)
	if err := <-joinedB; err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, b, primary)
	if served, installed := primary.Stats().SnapshotsServed, b.Stats().SnapshotsInstalled; served != 1 || installed != 1 {
		t.Fatalf("%d snapshots served, %d installed: want the lagging member pushed one", served, installed)
	}
}

// TestPushCatchesUpPastTheTailBound: a member being pushed a snapshot
// while the primary commits past its retained-tail bound still catches
// up from the tail with that one push: truncation keeps every record
// from the push's capture on, and cuts the tail back to its bound once
// the member has been sent up to the head.
func TestPushCatchesUpPastTheTailBound(t *testing.T) {
	const bound = 8
	SetSnapChunkBytes(t, 256)
	primary := NewStore(nil, Config{ReplicationLogMaxRecords: bound})
	primary.SetSelf("p")
	if err := primary.InstallEpoch(2, []string{"p", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*bound; i++ {
		commitPut(t, primary, kv.MakeOID(0, uint64(i)), "history")
	}
	a, b := NewStore(nil, Config{}), NewStore(nil, Config{})
	sendB, stalled, release := stallOnce(b, func(req *kv.MirrorBatchReq) bool { return req.Snap != nil })
	if err := <-primary.AttachMirrorMember("a", a.ApplyMirroredBatch); err != nil {
		t.Fatal(err)
	}
	joinedB := primary.AttachMirrorMember("b", sendB)
	defer primary.DetachAllMirrorMembers()
	<-stalled
	captured := primary.ReplSeq()
	for i := 0; i < 5*bound; i++ {
		commitPut(t, primary, kv.MakeOID(1, uint64(i)), "during the push")
	}
	if base, head := primary.LogBounds(); base > captured || head-base <= bound {
		t.Fatalf("retained tail [%d,%d) during a push captured at %d: want it kept from the capture", base, head, captured)
	}
	close(release)
	if err := <-joinedB; err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, b, primary)
	if served, installed := primary.Stats().SnapshotsServed, b.Stats().SnapshotsInstalled; served != 2 || installed != 1 {
		t.Fatalf("%d snapshots served, %d installed by the member: want one push each for a and b", served, installed)
	}
	commitPut(t, primary, kv.MakeOID(2, 0), "after the push")
	if base, head := primary.LogBounds(); head-base > bound {
		t.Fatalf("retained tail [%d,%d) after the push caught up: want at most %d records", base, head, bound)
	}
}
