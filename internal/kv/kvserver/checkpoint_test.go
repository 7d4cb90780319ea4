package kvserver

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yesquel/internal/kv"
)

// The checkpoint's failure paths, each reached on purpose rather than by
// the timing of a rotation on a goroutine.

// TestCheckpointWhileRotationInProgress: a checkpoint that finds a
// rotation in flight truncates the tail in memory and refuses to rotate;
// the next one, with the rotation out of the way, rotates.
func TestCheckpointWhileRotationInProgress(t *testing.T) {
	s, err := OpenStore(nil, Config{LogPath: filepath.Join(t.TempDir(), "store.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseLog()
	putLeaves(t, s, 4)

	s.ckptBusy.Store(true)
	if _, err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "already in progress") {
		t.Fatalf("checkpoint during a rotation: %v", err)
	}
	if base, head := s.LogBounds(); base != head {
		t.Fatalf("refused checkpoint kept records [%d, %d) in memory", base, head)
	}
	if n := s.Stats().Checkpoints; n != 0 {
		t.Fatalf("refused checkpoint counted %d rotations", n)
	}
	s.ckptBusy.Store(false)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Checkpoints; n != 1 {
		t.Fatalf("%d rotations, want 1", n)
	}
}

// TestCheckpointRotationFailure: a rotation whose replacement file cannot
// be created fails the checkpoint and counts a failure, frees the next
// rotation and leaves the log taking appends and replaying to the state.
func TestCheckpointRotationFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	cfg := Config{LogPath: path}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseLog()
	oids := putLeaves(t, s, 4)

	// A directory where the replacement file goes: opening it to write fails.
	if err := os.Mkdir(path+".ckpt", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "creating checkpoint log") {
		t.Fatalf("checkpoint onto an unopenable file: %v", err)
	}
	if st := s.Stats(); st.Checkpoints != 0 || st.CheckpointFailures != 1 || s.ckptBusy.Load() {
		t.Fatalf("after the failed rotation: %d rotations, %d failures, busy %v", st.Checkpoints, st.CheckpointFailures, s.ckptBusy.Load())
	}
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oids[0], 1, 1)); err != nil {
		t.Fatalf("append after a failed rotation: %v", err)
	}
	if digest, seq := reopened(t, cfg, path); digest != s.StateDigest() || seq != s.ReplSeq() {
		t.Fatalf("reopened at seq %d digest %x, want seq %d digest %x", seq, digest, s.ReplSeq(), s.StateDigest())
	}

	if err := os.Remove(path + ".ckpt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Checkpoints; n != 1 {
		t.Fatalf("%d rotations, want 1", n)
	}
}

// TestRotateClosedLog: a rotation that finds its log closed by the time
// the snapshot is written swaps nothing and leaves no file beside it.
func TestRotateClosedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	w, err := openWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	w.beginRotate()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	swapped, err := w.finishRotate(func(emit func([]byte) error) error { return emit([]byte("state")) })
	if swapped || err == nil || !strings.Contains(err.Error(), "closed log") {
		t.Fatalf("rotating a closed log: swapped=%v err=%v", swapped, err)
	}
	if _, err := os.Stat(path + ".ckpt"); !os.IsNotExist(err) {
		t.Fatalf("replacement file left beside the closed log: %v", err)
	}
}

// TestMaybeCheckpoint: a backup lets its tail grow past the bound while
// it applies mirror batches (up to the slack); MaybeCheckpoint cuts it
// back to half the bound, and reports nothing to do once within it.
func TestMaybeCheckpoint(t *testing.T) {
	const maxRecords = 8
	primary, backup := NewStore(nil, Config{}), NewStore(nil, Config{ReplicationLogMaxRecords: maxRecords})
	for i := 0; i < 2*maxRecords; i++ {
		commitPut(t, primary, kv.MakeOID(0, uint64(i%4)), fmt.Sprintf("v%d", i))
	}
	catchUp(t, backup, primary)
	if base, head := backup.LogBounds(); head-base <= maxRecords {
		t.Fatalf("test premise: the backup retains %d records, within its bound %d", head-base, maxRecords)
	}
	if did, err := backup.MaybeCheckpoint(); !did || err != nil {
		t.Fatalf("MaybeCheckpoint past the bound: %v, %v", did, err)
	}
	if base, head := backup.LogBounds(); head-base != maxRecords/2 {
		t.Fatalf("the backup retains %d records, want %d", head-base, maxRecords/2)
	}
	if did, err := backup.MaybeCheckpoint(); did || err != nil {
		t.Fatalf("MaybeCheckpoint within the bound: %v, %v", did, err)
	}
}
