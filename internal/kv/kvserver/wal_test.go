package kvserver

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"yesquel/internal/kv"
)

func walStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := OpenStore(nil, Config{LogPath: path, LogSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWALRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := walStore(t, path)

	oid1 := kv.MakeOID(0, 1)
	oid2 := kv.MakeOID(0, 2)
	commitPut(t, s, oid1, "v1")
	commitPut(t, s, oid1, "v2") // second version
	ts := commitPut(t, s, oid2, "other")
	// Delta commits must replay too.
	oid3 := kv.MakeOID(0, 3)
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{
		{Kind: kv.OpListAdd, OID: oid3, Cell: kv.Cell{Key: []byte("a"), Value: []byte("1")}},
		{Kind: kv.OpAttrSet, OID: oid3, Attr: 2, Num: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all committed state is back.
	s2 := walStore(t, path)
	defer s2.CloseLog()
	v, _, err := s2.Read(oid1, s2.Clock().Now())
	if err != nil || string(v.Data) != "v2" {
		t.Fatalf("recovered oid1: %v %v", v, err)
	}
	v, ver, err := s2.Read(oid2, s2.Clock().Now())
	if err != nil || string(v.Data) != "other" {
		t.Fatalf("recovered oid2: %v %v", v, err)
	}
	if ver != ts {
		t.Fatalf("commit timestamp not preserved: %d vs %d", ver, ts)
	}
	v, _, err = s2.Read(oid3, s2.Clock().Now())
	if err != nil || v.NumCells() != 1 || v.Attrs[2] != 9 {
		t.Fatalf("recovered deltas: %+v %v", v, err)
	}
	// MVCC history: the pre-v2 version of oid1 is reachable below ts.
	// (Replay preserves timestamps, so time travel still works.)
	if vv, _, err := s2.Read(oid1, ver-1); err == nil {
		if string(vv.Data) != "v1" && string(vv.Data) != "v2" {
			t.Fatalf("historical read: %q", vv.Data)
		}
	}
}

func TestWALRecoveryAfterDeleteAndNewWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := walStore(t, path)
	oid := kv.MakeOID(0, 7)
	commitPut(t, s, oid, "x")
	if err := prepCommit(t, s, s.Clock().Now(), []*kv.Op{{Kind: kv.OpDelete, OID: oid}}); err != nil {
		t.Fatal(err)
	}
	s.CloseLog()

	s2 := walStore(t, path)
	if _, _, err := s2.Read(oid, s2.Clock().Now()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
	// The recovered store continues appending to the same log.
	commitPut(t, s2, oid, "reborn")
	s2.CloseLog()

	s3 := walStore(t, path)
	defer s3.CloseLog()
	v, _, err := s3.Read(oid, s3.Clock().Now())
	if err != nil || string(v.Data) != "reborn" {
		t.Fatalf("second recovery: %v %v", v, err)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := walStore(t, path)
	oid := kv.MakeOID(0, 1)
	commitPut(t, s, oid, "good")
	s.CloseLog()

	// Simulate a crash mid-append: garbage header at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0xff, 0x12})
	f.Close()

	s2 := walStore(t, path)
	defer s2.CloseLog()
	v, _, err := s2.Read(oid, s2.Clock().Now())
	if err != nil || string(v.Data) != "good" {
		t.Fatalf("recovery with torn tail: %v %v", v, err)
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := walStore(t, path)
	commitPut(t, s, kv.MakeOID(0, 1), "one")
	commitPut(t, s, kv.MakeOID(0, 2), "two")
	s.CloseLog()

	// Flip a byte in the middle of the file: replay keeps everything
	// before the damaged record and drops the rest.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(nil, Config{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseLog()
	// At least one object survives; no panic, no error.
	if s2.NumObjects() == 0 {
		t.Fatal("corrupt middle lost everything before it")
	}
}

func TestWALAbortedTxNotLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := walStore(t, path)
	oid := kv.MakeOID(0, 1)
	txid := newTxID()
	if _, err := s.Prepare(txid, s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("no"))}}); err != nil {
		t.Fatal(err)
	}
	s.Abort(txid)
	s.CloseLog()

	s2 := walStore(t, path)
	defer s2.CloseLog()
	if _, _, err := s2.Read(oid, s2.Clock().Now()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("aborted tx recovered: %v", err)
	}
}

// TestWALCheckpointMultiFrameSnapshot: a rotated snapshot larger than
// one frame chunk is split across consecutive leading frames and
// reassembled on replay — the path that keeps stores bigger than the
// wire frame limit checkpointable.
func TestWALCheckpointMultiFrameSnapshot(t *testing.T) {
	old := snapChunkBytes
	snapChunkBytes = 128 // force many frames without gigabytes of state
	defer func() { snapChunkBytes = old }()

	path := filepath.Join(t.TempDir(), "store.log")
	cfg := Config{LogPath: path}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		commitPut(t, s, kv.MakeOID(0, uint64(i)), fmt.Sprintf("v%d", i))
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitPut(t, s, kv.MakeOID(0, 99), "tail")
	digest, seq := s.StateDigest(), s.ReplSeq()
	s.CloseLog()

	s2, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseLog()
	if got := s2.StateDigest(); got != digest {
		t.Fatalf("multi-frame restart digest %x != %x", got, digest)
	}
	if got := s2.ReplSeq(); got != seq {
		t.Fatalf("multi-frame restart seq %d != %d", got, seq)
	}
}

// TestWALOnlyStoreCheckpointsAndRestarts: a store configured with a
// log file and a tail bound — nothing else — checkpoints when the bound
// is passed, so its file holds a snapshot plus a tail instead of its
// whole history, and a restart replays exactly that.
func TestWALOnlyStoreCheckpointsAndRestarts(t *testing.T) {
	const max = 32
	path := filepath.Join(t.TempDir(), "store.log")
	cfg := Config{LogPath: path, ReplicationLogMaxRecords: max}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*max; i++ { // two stream records per commit
		commitPut(t, s, kv.MakeOID(0, uint64(i%8)), fmt.Sprintf("v%d", i))
	}
	// The policy path rotates on a goroutine.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Checkpoints == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after %d commits over a %d-record bound (failures %d)", 4*max, max, s.Stats().CheckpointFailures)
		}
		time.Sleep(time.Millisecond)
	}
	if base, head := s.LogBounds(); head-base > max {
		t.Fatalf("retained tail %d records exceeds the bound %d", head-base, max)
	}
	commitPut(t, s, kv.MakeOID(0, 99), "tail")
	digest, seq := s.StateDigest(), s.ReplSeq()
	s.CloseLog()

	snap, recs, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("log file was never rotated onto a snapshot")
	}
	if uint64(len(recs)) >= seq {
		t.Fatalf("rotated file still holds the whole history: %d records of %d", len(recs), seq)
	}

	s2, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseLog()
	if got := s2.StateDigest(); got != digest {
		t.Fatalf("restart digest %x != %x", got, digest)
	}
	if got := s2.ReplSeq(); got != seq {
		t.Fatalf("restart seq %d != %d", got, seq)
	}
}

func TestWALManyCommitsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenStore(nil, Config{LogPath: path}) // no per-commit sync: still ordered
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		commitPut(t, s, kv.MakeOID(0, uint64(i)), fmt.Sprintf("v%d", i))
	}
	s.CloseLog()
	s2 := walStore(t, path)
	defer s2.CloseLog()
	for i := 0; i < n; i++ {
		v, _, err := s2.Read(kv.MakeOID(0, uint64(i)), s2.Clock().Now())
		if err != nil || string(v.Data) != fmt.Sprintf("v%d", i) {
			t.Fatalf("object %d: %v %v", i, v, err)
		}
	}
}

// TestWALFailureRetriedByItsWaiter: a write-ahead-log append fails
// once, and nothing is emitted after it, so no later writer rewrites the
// record. Its committer's wait retries the write itself: once the file
// heals, the commit completes, WALFailures counts the one failure, and
// a replay finds each record exactly once.
func TestWALFailureRetriedByItsWaiter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := walStore(t, path)
	commitPut(t, s, kv.MakeOID(0, 1), "before")
	readOnly, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	w := s.wal
	w.mu.Lock()
	good := w.f
	w.f = readOnly
	w.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{
			{Kind: kv.OpPut, OID: kv.MakeOID(0, 2), Value: kv.NewPlain([]byte("across the failure"))},
		})
		done <- err
	}()
	for s.Stats().WALFailures == 0 {
		select {
		case err := <-done:
			t.Fatalf("commit returned %v before its log write could succeed", err)
		case <-time.After(time.Millisecond):
		}
	}
	w.mu.Lock()
	w.f = good
	w.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the commit's wait did not retry its failed log write")
	}
	if n := s.Stats().WALFailures; n != 1 {
		t.Fatalf("WALFailures = %d, want 1", n)
	}
	head := s.ReplSeq()
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != head {
		t.Fatalf("replay found %d records, the stream holds %d", len(recs), head)
	}
	r := walStore(t, path)
	defer r.CloseLog()
	if r.ReplSeq() != head || r.StateDigest() != s.StateDigest() {
		t.Fatalf("reopened at seq %d (digest %x), want seq %d (digest %x)", r.ReplSeq(), r.StateDigest(), head, s.StateDigest())
	}
}
