package kvserver

// Tests for the three per-commit costs that are meant to follow the
// delta, not the state: versions that share structure, one apply per
// commit, and a write-ahead log that is rotated only when its tail has
// grown to the size of the state.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// testLeaf is a DBT leaf half full of rows: 64 cells of a 12-byte key
// and a 100-byte value.
func testLeaf() *kv.Value {
	v := kv.NewSuper()
	for i := 0; i < 64; i++ {
		v.ListAdd(leafCellKey(i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	return v
}

func leafCellKey(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

// putLeaves fast-commits a fresh testLeaf at each of n OIDs.
func putLeaves(tb testing.TB, s *Store, n int) []kv.OID {
	tb.Helper()
	oids := make([]kv.OID, n)
	for i := range oids {
		oids[i] = kv.MakeOID(0, uint64(i+1))
		if _, err := s.FastCommit(newTxID(), s.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oids[i], Value: testLeaf()}}); err != nil {
			tb.Fatal(err)
		}
	}
	return oids
}

// updateCell is the op of a one-row UPDATE: replace cell i's value.
func updateCell(oid kv.OID, i, gen int) []*kv.Op {
	return []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: leafCellKey(i % 64), Value: bytes.Repeat([]byte{byte(gen)}, 100)}}}
}

func encodeValue(v *kv.Value) []byte {
	b := wire.NewBuffer(v.EncodedSize())
	kv.EncodeValue(b, v)
	return append([]byte(nil), b.Bytes()...)
}

// TestReadValuesNeverChangeUnderCommits: what Read and ReadPart return
// aliases the stored version, and the next version aliases most of
// that. Readers hold on to what they were given while a writer lands
// replaces, inserts and range deletes on the same leaf; every held
// value must still encode to the bytes it had when it was returned.
// Run under -race this is also the check that no commit writes memory
// a reader can reach.
func TestReadValuesNeverChangeUnderCommits(t *testing.T) {
	s := NewStore(nil, Config{MaxVersions: 8})
	oid := putLeaves(t, s, 1)[0]

	const commits = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			ops := updateCell(oid, i, i)
			switch i % 5 {
			case 3: // insert a new cell
				ops[0].Cell.Key = []byte(fmt.Sprintf("user9%07d", i))
			case 4: // delete a few cells
				ops = []*kv.Op{{Kind: kv.OpListDelRange, OID: oid, From: leafCellKey(i % 64), To: leafCellKey(i%64 + 2)}}
			}
			if _, err := s.FastCommit(newTxID(), s.Clock().Now(), ops); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()

	type held struct {
		v   *kv.Value
		enc []byte
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var kept []held
			check := func() {
				for i, h := range kept {
					if !bytes.Equal(encodeValue(h.v), h.enc) {
						t.Errorf("reader %d: value %d changed after it was returned", r, i)
						return
					}
				}
			}
			for n := 0; ; n++ {
				select {
				case <-done:
					check()
					return
				default:
				}
				var v *kv.Value
				var err error
				if n%2 == 0 {
					v, _, err = s.Read(oid, s.Clock().Now())
				} else {
					v, _, _, err = s.ReadPart(oid, s.Clock().Now(), leafCellKey(n%64), nil, 8)
				}
				if err != nil {
					if errors.Is(err, kv.ErrConflict) {
						continue // blocked on the writer's prepare
					}
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(kept) < 256 {
					kept = append(kept, held{v, encodeValue(v)})
				}
				if n%64 == 0 {
					check()
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestCommitInstallsPreparedValue: a commit installs the value its
// prepare computed rather than applying the ops again, and a prepare
// that arrived as a stream record (which carries no value) still
// commits to the same state.
func TestCommitInstallsPreparedValue(t *testing.T) {
	primary, backup := NewStore(nil, Config{}), NewStore(nil, Config{})
	oid := kv.MakeOID(0, 1)
	ops := []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: testLeaf()}}
	if _, err := primary.FastCommit(newTxID(), primary.Clock().Now(), ops); err != nil {
		t.Fatal(err)
	}

	txid := newTxID()
	ts, err := primary.Prepare(txid, primary.Clock().Now(), updateCell(oid, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	sh := primary.shardFor(oid)
	sh.mu.Lock()
	lock := sh.objs[oid].lock
	sh.mu.Unlock()
	if !lock.hasStaged || lock.staged.Pending() != 1 {
		t.Fatal("prepare kept no staged value")
	}
	if err := primary.Commit(txid, ts); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	installed, _ := newest(sh.objs[oid])
	sh.mu.Unlock()
	if installed != lock.staged {
		t.Fatalf("commit installed %+v, want the prepared value %+v", installed, lock.staged)
	}

	// The backup sees the same transactions as records only.
	catchUp(t, backup, primary)
	if got, want := backup.StateDigest(), primary.StateDigest(); got != want {
		t.Fatalf("backup digest %x != primary digest %x", got, want)
	}
}

// copyLog copies the write-ahead log as a kill -9 would leave it: what
// has been written, no flush, no close.
func copyLog(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopened opens a copy of the log at path as a second store and returns
// its digest and stream head.
func reopened(t *testing.T, cfg Config, path string) (digest, seq uint64) {
	t.Helper()
	cfg.LogPath = path + ".killed"
	copyLog(t, path, cfg.LogPath)
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseLog()
	return s.StateDigest(), s.ReplSeq()
}

// TestLogRotationAmortisedAgainstState walks a store whose state is far
// larger than its tail bound through the policy's life: the bound trips
// again and again and only ever truncates memory; a kill then replays
// the snapshot prefix and that long tail to the same state; the
// rotation fires once — when the log's tail has grown to the size of
// the state — and not again on the next trip; and a kill after it
// replays the new prefix plus its tail.
func TestLogRotationAmortisedAgainstState(t *testing.T) {
	const maxRecords = 16
	path := filepath.Join(t.TempDir(), "store.log")
	// Two versions per object keep the state's size steady, so the test
	// can say when the rotation is due.
	cfg := Config{LogPath: path, ReplicationLogMaxRecords: maxRecords, MaxVersions: 2}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseLog()
	oids := putLeaves(t, s, 24)
	gen := 0
	update := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			gen++
			if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oids[gen%len(oids)], gen, gen)); err != nil {
				t.Fatal(err)
			}
			if base, head := s.LogBounds(); head-base > maxRecords {
				t.Fatalf("retained tail holds %d records, bound %d", head-base, maxRecords)
			}
		}
	}
	update(2 * len(oids)) // every object at its version cap
	// Loading wrote as many log bytes as it built state; start the walk
	// from a fresh snapshot prefix. The explicit checkpoint rotates
	// whatever the counters say (once the rotation the load may have
	// tripped is out of the way).
	for s.ckptBusy.Load() {
		time.Sleep(time.Millisecond)
	}
	ckptSeq, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rotations := s.Stats().Checkpoints
	if state, tail := s.stateBytes.Load(), s.walTailBytes.Load(); tail != 0 || state < 100*maxRecords*200 {
		t.Fatalf("test premise: after the checkpoint the log tail counts %d bytes, the state %d", tail, state)
	}

	update(300)
	st := s.Stats()
	if st.LogRecordsTruncated < 10*maxRecords/2 {
		t.Fatalf("the tail bound tripped too rarely to test anything: %d records truncated", st.LogRecordsTruncated)
	}
	if st.Checkpoints != rotations || st.CheckpointFailures != 0 {
		t.Fatalf("log rotated %d times (%d failures) while its tail (%d bytes) was below the state (%d bytes)",
			st.Checkpoints-rotations, st.CheckpointFailures, s.walTailBytes.Load(), s.stateBytes.Load())
	}
	if _, recs, err := replayWAL(path); err != nil || uint64(len(recs)) != s.ReplSeq()-ckptSeq {
		t.Fatalf("log holds %d records after its prefix, want all %d since the checkpoint (err %v)", len(recs), s.ReplSeq()-ckptSeq, err)
	}
	if digest, seq := reopened(t, cfg, path); digest != s.StateDigest() || seq != s.ReplSeq() {
		t.Fatalf("kill with a long tail: reopened at seq %d digest %x, want seq %d digest %x", seq, digest, s.ReplSeq(), s.StateDigest())
	}

	// Keep writing, a commit at a time, until a trip starts the rotation
	// (on a goroutine): it is due at the first trip after the tail has
	// caught up with the state. Stopping at its START matters — writing a
	// fixed batch past the catch-up point lets a quick rotation finish
	// and the tail grow all the way back, so that the rotation counted
	// below is not the one whose tail is then read.
	started := func() bool { return s.ckptBusy.Load() || s.Stats().Checkpoints != rotations }
	for overdue := 0; !started(); {
		if s.walTailBytes.Load() >= s.stateBytes.Load() {
			if overdue++; overdue > 2*maxRecords {
				t.Fatalf("no rotation begun %d commits after the log tail (%d bytes) caught up with the state (%d bytes)",
					overdue, s.walTailBytes.Load(), s.stateBytes.Load())
			}
		}
		update(1)
	}
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Checkpoints == rotations; {
		if time.Now().After(deadline) {
			t.Fatalf("rotation not finished with a log tail of %d bytes over a state of %d (failures %d)",
				s.walTailBytes.Load(), s.stateBytes.Load(), s.Stats().CheckpointFailures)
		}
		time.Sleep(time.Millisecond)
	}
	if tail, state := s.walTailBytes.Load(), s.stateBytes.Load(); tail*2 > state {
		t.Fatalf("after the rotation the log tail counts %d bytes against a state of %d", tail, state)
	}
	update(10 * maxRecords)
	if n := s.Stats().Checkpoints - rotations; n != 1 {
		t.Fatalf("%d rotations, want 1: the trips after a rotation must only truncate", n)
	}
	if _, recs, err := replayWAL(path); err != nil || uint64(len(recs)) >= s.ReplSeq()-ckptSeq {
		t.Fatalf("rotated log still holds %d records of the %d since the first checkpoint (err %v)", len(recs), s.ReplSeq()-ckptSeq, err)
	}
	if digest, seq := reopened(t, cfg, path); digest != s.StateDigest() || seq != s.ReplSeq() {
		t.Fatalf("kill after the rotation: reopened at seq %d digest %x, want seq %d digest %x", seq, digest, s.ReplSeq(), s.StateDigest())
	}
}

// TestCrashMidRotationLeavesLogIntact: the snapshot goes to a file
// beside the log, frame by frame, and becomes the log only by the final
// rename. A rotation that dies part-way — the writer failing, or the
// process, leaving half the frames behind — costs nothing: the log
// replays as before and keeps taking appends.
func TestCrashMidRotationLeavesLogIntact(t *testing.T) {
	old := snapChunkBytes
	snapChunkBytes = 4096 // many frames
	defer func() { snapChunkBytes = old }()

	path := filepath.Join(t.TempDir(), "store.log")
	cfg := Config{LogPath: path}
	s, err := OpenStore(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseLog()
	oids := putLeaves(t, s, 8)

	// The writer fails after three frames.
	s.repMu.Lock()
	sn := s.captureSnapshotLocked()
	s.repMu.Unlock()
	frames := 0
	crash := errors.New("crash")
	s.wal.beginRotate()
	swapped, err := s.wal.finishRotate(func(emit func([]byte) error) error {
		return encodeSnapshot(sn, snapChunkBytes, func(piece []byte) error {
			if frames++; frames > 3 {
				return crash
			}
			return emit(piece)
		})
	})
	if swapped || !errors.Is(err, crash) {
		t.Fatalf("failed rotation: swapped=%v err=%v", swapped, err)
	}
	if frames <= 3 {
		t.Fatalf("snapshot fit in %d frames; the test needs it to span more", frames)
	}
	if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oids[0], 1, 1)); err != nil {
		t.Fatalf("append after a failed rotation: %v", err)
	}

	// The process dies instead, leaving the half-written file behind.
	half := []byte(walMagic)
	hdr := frameHeader(walFrameSnapshot, make([]byte, 4096))
	half = append(append(half, hdr[:]...), make([]byte, 1000)...)
	for _, beside := range []string{path, path + ".killed"} {
		if err := os.WriteFile(beside+".ckpt", half, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if digest, seq := reopened(t, cfg, path); digest != s.StateDigest() || seq != s.ReplSeq() {
		t.Fatalf("reopened at seq %d digest %x, want seq %d digest %x", seq, digest, s.ReplSeq(), s.StateDigest())
	}
	if snap, _, _ := replayWAL(path); snap != nil {
		t.Fatal("the log holds snapshot frames though no rotation completed")
	}

	// And a later rotation still succeeds over the leftovers.
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if digest, seq := reopened(t, cfg, path); digest != s.StateDigest() || seq != s.ReplSeq() {
		t.Fatalf("after a completed rotation: reopened at seq %d digest %x, want seq %d digest %x", seq, digest, s.ReplSeq(), s.StateDigest())
	}
}

// TestSnapshotStreamsInExactChunks: the streaming encoder cuts the same
// bytes whatever the chunk size, every piece but the last exactly that
// size — which is what lets the log's frames and a transfer's chunks be
// concatenated back by readers that never knew the size.
func TestSnapshotStreamsInExactChunks(t *testing.T) {
	s := NewStore(nil, Config{})
	oids := putLeaves(t, s, 4)
	for i := 0; i < 20; i++ {
		if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oids[i%4], i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Prepare(newTxID(), s.Clock().Now(), updateCell(oids[0], 1, 99)); err != nil {
		t.Fatal(err)
	}
	s.repMu.Lock()
	sn := s.captureSnapshotLocked()
	s.repMu.Unlock()

	var whole []byte
	if err := encodeSnapshot(sn, 1<<30, func(p []byte) error { whole = append(whole, p...); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 512, len(whole) - 1, len(whole), len(whole) + 1} {
		var got []byte
		var sizes []int
		if err := encodeSnapshot(sn, size, func(p []byte) error {
			got = append(got, p...)
			sizes = append(sizes, len(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, whole) {
			t.Fatalf("chunk size %d: pieces do not concatenate to the encoding", size)
		}
		for i, n := range sizes {
			if last := i == len(sizes)-1; (!last && n != size) || n == 0 || n > size {
				t.Fatalf("chunk size %d: piece %d of %d holds %d bytes", size, i, len(sizes), n)
			}
		}
	}
	r := NewStore(nil, Config{})
	if err := r.InstallSnapshot(whole); err != nil {
		t.Fatal(err)
	}
	if got, want := r.StateDigest(), s.StateDigest(); got != want {
		t.Fatalf("installed digest %x != source %x", got, want)
	}
	if got, want := r.stateBytes.Load(), s.stateBytes.Load(); got != want {
		t.Fatalf("installed store counts %d state bytes, source %d", got, want)
	}
}

// TestFastCommitAllocBudget: one ListAdd on a 64-cell leaf allocates a
// handful of objects — the lock, the stream record, the decided entry
// and the op array of the version chain every sixteenth commit: 15
// without a log and 25 with one when this was written — and nothing per
// cell of the leaf but its rebase every sixteenth commit. A deep copy of
// the leaf is 130 allocations on its own (a store that deep-copied the
// leaf per commit made 283), so it cannot come back under these
// budgets, which leave room for the log flusher's batching to vary.
//
// Without a log the bytes are held to a budget too, averaged over two
// rebases' worth of commits: 5,958 per commit when each version copied
// the leaf's cell header array, about 2,500 since a version keeps the
// commit's ops on a shared base.
func TestFastCommitAllocBudget(t *testing.T) {
	const rebaseEvery = 16 // kv's rebase interval
	for _, tc := range []struct {
		name   string
		wal    bool
		budget float64
		bytes  float64
	}{
		{"memory", false, 30, 3200},
		{"wal", true, 45, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{}
			if tc.wal {
				cfg.LogPath = filepath.Join(t.TempDir(), "store.log")
			}
			s, err := OpenStore(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.CloseLog()
			oid := putLeaves(t, s, 1)[0]
			i := 0
			commit := func() {
				i++
				if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oid, i, i)); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, commit)
			t.Logf("%.1f allocations per FastCommit", allocs)
			if allocs > tc.budget {
				t.Fatalf("%.1f allocations per one-cell FastCommit on a 64-cell leaf, budget %.0f", allocs, tc.budget)
			}
			if tc.bytes == 0 {
				return
			}
			// The median of five windows, so that one window in which the
			// decided table or the version array grew does not decide.
			windows := make([]float64, 5)
			for w := range windows {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for k := 0; k < 2*rebaseEvery; k++ {
					commit()
				}
				runtime.ReadMemStats(&after)
				windows[w] = float64(after.TotalAlloc-before.TotalAlloc) / (2 * rebaseEvery)
			}
			slices.Sort(windows)
			t.Logf("%.0f bytes per FastCommit (windows %.0f)", windows[2], windows)
			if windows[2] > tc.bytes {
				t.Fatalf("%.0f bytes per one-cell FastCommit on a 64-cell leaf, budget %.0f", windows[2], tc.bytes)
			}
		})
	}
}
