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
// live mirror record stamped with the old epoch is rejected with
// ErrWrongEpoch (the deposed primary must not get its record
// acknowledged), while sync replays of history remain exempt.
func TestMirrorRejectsStalePrimaryEpoch(t *testing.T) {
	b := NewStore(nil, Config{})
	b.SetSelf("b")
	mirror := func(seq uint64, rec kv.ReplRecord) error {
		return b.ApplyMirroredBatch([]kv.SyncRec{{Seq: seq, Rec: rec}})
	}
	// The replica applies an epoch-2 record, then is promoted to epoch 3.
	if err := mirror(0, kv.ReplRecord{Kind: kv.RecEpoch, Epoch: 2, Members: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := b.InstallEpoch(3, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	// A stale primary's live record at epoch 2 must be turned away.
	stale := kv.ReplRecord{Kind: kv.RecCommit, Epoch: 2, TS: b.Clock().Now(),
		Ops: []*kv.Op{{Kind: kv.OpPut, OID: kv.MakeOID(0, 9), Value: kv.NewPlain([]byte("split"))}}}
	err := mirror(2, stale)
	if !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("stale-epoch mirror record: %v, want ErrWrongEpoch", err)
	}
	// A stale RecEpoch (e.g. the deposed primary trying to re-form its
	// own group) is rejected too.
	err = mirror(2, kv.ReplRecord{Kind: kv.RecEpoch, Epoch: 3, Members: []string{"a"}})
	if !errors.Is(err, kv.ErrWrongEpoch) {
		t.Fatalf("stale RecEpoch: %v, want ErrWrongEpoch", err)
	}
}
