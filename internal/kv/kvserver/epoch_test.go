package kvserver

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"yesquel/internal/kv"
)

// TestSweepOrphansEpochGuard pins the one orphan rule:
// SweepOrphans never TTL-aborts a prepare
// whose epoch is still current — its coordinator may legitimately be
// mid-drive on a decided commit — and only reaps it after the epoch is
// provably superseded AND a fresh TTL (restarted at the bump, giving
// the coordinator a redirect window) has passed.
func TestSweepOrphansEpochGuard(t *testing.T) {
	old := prepareTTL
	prepareTTL = 20 * time.Millisecond
	defer func() { prepareTTL = old }()
	s := NewStore(nil, Config{})
	s.SetSelf("a")
	if err := s.InstallEpoch(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	oid := kv.MakeOID(0, 1)
	txid := newTxID()
	if _, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("in-flight"))},
	}); err != nil {
		t.Fatal(err)
	}

	// Long past the TTL, the prepare's epoch is still current: never
	// unilaterally aborted, no matter how many sweeps run.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if n := s.SweepOrphans(); n != 0 {
			t.Fatalf("sweep aborted a current-epoch prepare (n=%d)", n)
		}
	}
	if !s.IsLocked(oid) {
		t.Fatal("current-epoch prepare lost its lock")
	}

	// A failover happens: the epoch is superseded. The TTL restarts at
	// the bump, so an immediate sweep still must not reap — the
	// coordinator gets a full window to redirect its decision.
	if err := s.InstallEpoch(3, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if n := s.SweepOrphans(); n != 0 {
		t.Fatalf("sweep reaped a superseded prepare before its post-bump TTL (n=%d)", n)
	}

	// Only after the post-bump TTL does the sweep reap it.
	time.Sleep(50 * time.Millisecond)
	if n := s.SweepOrphans(); n != 1 {
		t.Fatalf("superseded prepare not swept after TTL (n=%d)", n)
	}
	if s.IsLocked(oid) {
		t.Fatal("orphan abort did not release the lock")
	}
	if st := s.Stats(); st.OrphanAborts != 1 {
		t.Fatalf("orphan counters: %+v", st)
	}
	// The late coordinator's commit is answered with the abort outcome.
	if err := s.Commit(txid, s.Clock().Now()); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("late commit after epoch-guarded orphan abort: %v, want ErrConflict", err)
	}
}

// TestCheckClientOpRoles pins the serving matrix of the epoch
// discipline: a primary serves only current-epoch requests (or ones
// from a client that has not learned the epoch yet) and, with other
// members in the group, only under a valid lease; backups and removed
// members always redirect.
func TestCheckClientOpRoles(t *testing.T) {
	// A fresh store is a sole-member primary: no lease needed (no one
	// else could be promoted), stale epochs still rejected.
	s := NewStore(nil, Config{})
	s.SetSelf("a")
	if err := s.CheckClientOp(1); err != nil {
		t.Fatalf("sole-member primary rejected a current-epoch op: %v", err)
	}
	if err := s.CheckClientOp(0); err != nil {
		t.Fatalf("sole-member primary rejected an op from a client that has not learned the epoch: %v", err)
	}
	if err := s.CheckClientOp(7); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("future-epoch op: %v, want ErrWrongEpoch", err)
	}

	// Multi-member primary: needs a lease.
	if err := s.InstallEpoch(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckClientOp(2); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("primary without a lease served: %v, want ErrWrongEpoch", err)
	}
	s.ExtendLease("b", time.Now().Add(time.Minute))
	if err := s.CheckClientOp(2); err != nil {
		t.Fatalf("leased primary rejected a current-epoch op: %v", err)
	}
	if err := s.CheckClientOp(1); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("stale-epoch op on leased primary: %v, want ErrWrongEpoch", err)
	}
	// The rejection carries the configuration the client needs.
	var we *kv.WrongEpochError
	if !errors.As(s.CheckClientOp(1), &we) || we.Epoch != 2 || len(we.Members) != 2 || we.Members[0] != "a" {
		t.Fatalf("rejection payload: %+v", we)
	}

	// Backup: redirects even current-epoch requests.
	b := NewStore(nil, Config{})
	b.SetSelf("b")
	b.AdoptEpoch(2, []string{"a", "b"})
	if got := b.Role(); got != RoleBackup {
		t.Fatalf("role: %q", got)
	}
	if err := b.CheckClientOp(2); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("backup served a client op: %v", err)
	}

	// Removed member (deposed primary that learned of its successor).
	s.AdoptEpoch(3, []string{"b"})
	if got := s.Role(); got != RoleRemoved {
		t.Fatalf("role after deposition: %q", got)
	}
	if err := s.CheckClientOp(3); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("removed member served a client op: %v", err)
	}
}

// TestWALPersistsEpoch: configuration changes are stream records, so a
// WAL-restarted member comes back knowing its epoch and membership.
func TestWALPersistsEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{LogPath: dir + "/wal.log"}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSelf("a")
	if err := s.InstallEpoch(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	commitPut(t, s, kv.MakeOID(0, 1), "epoch-2-data")
	if err := s.InstallEpoch(3, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseLog()
	if got := r.Epoch(); got != 3 {
		t.Fatalf("recovered epoch: %d, want 3", got)
	}
	if m := r.Members(); len(m) != 1 || m[0] != "a" {
		t.Fatalf("recovered members: %v", m)
	}
	if got, want := r.StateDigest(), s.StateDigest(); got != want {
		t.Fatalf("recovered digest %x != original %x", got, want)
	}
}

// TestWALRefusesUnrecognizedFormat: a log written by a binary with a
// different record layout must refuse to start loudly — the per-record
// checksums cannot catch a field-layout change, so "recover what
// parses" would silently lose durable commits.
func TestWALRefusesUnrecognizedFormat(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/wal.log"
	// A pre-versioning log: record frames with no magic header.
	if err := os.WriteFile(path, []byte("\x00\x00\x00\x10old-format-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(nil, Config{LogPath: path}); err == nil {
		t.Fatal("store opened on an unversioned log")
	} else if !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("refusal should name the incompatibility: %v", err)
	}
	// An empty or header-torn log is fine: no record can predate the
	// fully written header.
	if err := os.WriteFile(path, []byte(walMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(nil, Config{LogPath: path})
	if err != nil {
		t.Fatalf("torn-header log refused: %v", err)
	}
	s.CloseLog()
}

// TestMirrorRejectsStalePrimaryEpoch is the stream-level split-brain
// guard in isolation: once a replica has moved to a newer epoch, a
// mirror batch from the old epoch is rejected with ErrWrongEpoch (the
// deposed primary must not get its record acknowledged), and so is a
// configuration change at the replica's epoch with another membership,
// even in a batch stamped with that epoch. A batch from the current
// epoch's primary resending history stamped with older epochs, older
// configuration changes included, is applied.
func TestMirrorRejectsStalePrimaryEpoch(t *testing.T) {
	b := NewStore(nil, Config{})
	b.SetSelf("b")
	mirror := func(from, epoch uint64, rec kv.ReplRecord) error {
		return b.ApplyMirroredBatch(&kv.MirrorBatchReq{From: from, Epoch: epoch, Recs: []kv.ReplRecord{rec}})
	}
	// The replica applies an epoch-2 record, then is promoted to epoch 3.
	if err := mirror(0, 2, kv.ReplRecord{Kind: kv.RecEpoch, Epoch: 2, Members: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallEpoch(3, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	// A stale primary's batch at epoch 2 must be turned away.
	stale := kv.ReplRecord{Kind: kv.RecCommit, Epoch: 2, TS: b.Clock().Now(),
		Ops: []*kv.Op{{Kind: kv.OpPut, OID: kv.MakeOID(0, 9), Value: kv.NewPlain([]byte("split"))}}}
	if err := mirror(2, 2, stale); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("stale-epoch mirror batch: %v, want ErrWrongEpoch", err)
	}
	// A RecEpoch at this replica's epoch with another membership (the
	// deposed primary re-forming its own group) is refused, stamped with
	// its old epoch or with the one it installs.
	for _, epoch := range []uint64{2, 3} {
		if err := mirror(2, epoch, kv.ReplRecord{Kind: kv.RecEpoch, Epoch: 3, Members: []string{"a"}}); !errors.Is(err, kv.ErrWrongEpoch) {
			t.Fatalf("stale RecEpoch in a batch stamped %d: %v, want ErrWrongEpoch", epoch, err)
		}
	}
	if b.ReplSeq() != 2 {
		t.Fatalf("refused batches moved the stream to seq %d", b.ReplSeq())
	}

	// A loser of a failover adopted epoch 3 from its winner b before b's
	// RecEpoch reached it. The deposed primary a installs epoch 3 for its
	// own group, and its sender stamps the batch 3: refused, nothing
	// applied.
	r := NewStore(nil, Config{})
	if err := r.ApplyMirroredBatch(&kv.MirrorBatchReq{From: 0, Epoch: 2, Recs: []kv.ReplRecord{{Kind: kv.RecEpoch, Epoch: 2, Members: []string{"a", "r"}}}}); err != nil {
		t.Fatal(err)
	}
	r.AdoptEpoch(3, []string{"b", "r"})
	if err := r.ApplyMirroredBatch(&kv.MirrorBatchReq{From: 1, Epoch: 3, Recs: []kv.ReplRecord{{Kind: kv.RecEpoch, Epoch: 3, Members: []string{"a", "r"}}}}); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("deposed primary's RecEpoch at the adopted epoch: %v, want ErrWrongEpoch", err)
	}
	if r.ReplSeq() != 1 {
		t.Fatalf("refused RecEpoch moved the stream to seq %d", r.ReplSeq())
	}
	// The winner resends the history below its epoch change, stamped 2,
	// then the RecEpoch that installs the adopted epoch 3.
	history := stale
	history.TS = r.Clock().Now()
	if err := r.ApplyMirroredBatch(&kv.MirrorBatchReq{From: 1, Epoch: 3, Recs: []kv.ReplRecord{history, {Kind: kv.RecEpoch, Epoch: 3, Members: []string{"b", "r"}}}}); err != nil {
		t.Fatalf("resent history on a member that adopted the new epoch: %v", err)
	}

	// A loser that missed a configuration change its winner applied: its
	// stream is at epoch 2, it adopted 4, and the winner's history holds
	// the RecEpoch for 3 before the one for 4.
	l := NewStore(nil, Config{})
	if err := l.ApplyMirroredBatch(&kv.MirrorBatchReq{From: 0, Epoch: 2, Recs: []kv.ReplRecord{{Kind: kv.RecEpoch, Epoch: 2, Members: []string{"a", "w", "l"}}}}); err != nil {
		t.Fatal(err)
	}
	l.AdoptEpoch(4, []string{"w", "l"})
	missed := stale
	missed.Epoch, missed.TS = 3, l.Clock().Now()
	if err := l.ApplyMirroredBatch(&kv.MirrorBatchReq{From: 1, Epoch: 4, Recs: []kv.ReplRecord{
		{Kind: kv.RecEpoch, Epoch: 3, Members: []string{"a", "w", "l"}},
		missed,
		{Kind: kv.RecEpoch, Epoch: 4, Members: []string{"w", "l"}},
	}}); err != nil {
		t.Fatalf("missed configuration change in the winner's history: %v", err)
	}
	if l.Epoch() != 4 || l.ReplSeq() != 4 {
		t.Fatalf("after catching up: epoch %d, seq %d; want 4, 4", l.Epoch(), l.ReplSeq())
	}
}
