package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// The write-ahead log's format. The log is an append-only file of
// length- and checksum-framed frames, so a torn final frame (a crash
// mid-append) is detected and dropped at replay (replayWAL) rather than
// corrupting recovery. A checkpoint ROTATES it: the file is atomically
// replaced by one that begins with the frames of a state snapshot
// covering the stream up to the checkpoint, and records append after
// them, so a replay reads a snapshot and a tail, and the file's size is
// bounded by the checkpoint cadence rather than the store's lifetime.
// What is logged, and when, is the stream's business (stream.go,
// pipeline.go).
//
// File layout:
//
//	8 bytes walMagic — names the format version. The frame payloads
//	        have no self-description, so a log written by a binary
//	        with a different kv.ReplRecord or snapshot layout would
//	        replay as garbage that the checksums cannot catch (the
//	        payloads are intact, the FIELDS moved); the magic turns
//	        that into a loud refusal to start instead of a silent
//	        empty store.
//	then, repeated frames:
//	uint32  payload length
//	uint32  CRC-32C of payload
//	payload: 1 kind byte, then
//	         walFrameRecord:   kv.EncodeReplRecord — the same
//	                           serialization mirror RPCs and sync
//	                           batches use, so the log, the wire, and
//	                           the replication log stay byte-for-byte
//	                           interchangeable
//	         walFrameSnapshot: a piece of the canonical state-snapshot
//	                           encoding (snapshot.go), split across
//	                           consecutive frames when larger than
//	                           snapChunkBytes — only ever the
//	                           leading frames (rotation rewrites the
//	                           file); replay concatenates them

// walMagic identifies the format; bump the trailing version digits
// whenever the frame layout or kv.EncodeReplRecord's layout changes
// or the meaning of a field does (v2: epoch-stamped records with
// RecEpoch membership; v3: kind-tagged frames with snapshot
// checkpoints; v4: every stream starts in epoch 1, so a record stamped
// 0 fails the splice guard).
const walMagic = "YSQWAL04"

// Frame kinds (first payload byte).
const (
	walFrameRecord   byte = 1
	walFrameSnapshot byte = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wal is an append-only commit log with checkpoint rotation.
type wal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	sync bool

	// rotMu serializes rotations (held from beginRotate to the end of
	// finishRotate); teeing/tail implement the off-lock rotation: while
	// a rotation is writing the snapshot file, appendBatch copies every
	// frame it writes to the (old) log into tail too, and finishRotate
	// appends the accumulated tail after the snapshot frames before
	// swapping the file in — so records appended during the rotation
	// survive it. The checkpoint caller guarantees every record BELOW
	// the snapshot's coverage is already in the old file before
	// beginRotate (Store.drainWALLocked), so the tail holds only
	// records the snapshot does not cover.
	rotMu  sync.Mutex
	teeing bool
	tail   []byte

	// broken latches after a failed append: the file may hold a torn
	// frame, and appending PAST a failure would leave a silent gap
	// that replays as a spliced, mis-sequenced history (the pre-batch
	// path rolled the stream back on append failure for exactly this
	// reason). The next append REPAIRS first: the file is truncated
	// back to good — the byte size after the last fully successful
	// append — removing the torn frame, and the failed batch's records
	// (the log's cursor stays before them, so the pipeline's next
	// write starts with them) are rewritten in order. A checkpoint rotation also clears the latch: the
	// replacement file is rebuilt from a state snapshot.
	broken bool
	good   int64
}

func openWAL(path string, syncEach bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvserver: opening log: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() < int64(len(walMagic)) {
		// Empty log, or a header torn by a crash mid-create (no record
		// can exist before the fully written header): start it fresh.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("kvserver: resetting torn log header: %w", err)
		}
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("kvserver: writing log header: %w", err)
		}
	}
	w := &wal{f: f, path: path, sync: syncEach}
	if st, err := f.Stat(); err == nil {
		w.good = st.Size()
	}
	return w, nil
}

// frameHeader builds the 9-byte frame header (length, CRC over kind
// then payload, kind) — the single definition of the frame layout,
// shared by the streaming and in-memory writers.
func frameHeader(kind byte, payload []byte) [9]byte {
	var hdr [9]byte
	hdr[8] = kind
	crc := crc32.Update(crc32.Checksum(hdr[8:9], crcTable), crcTable, payload)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	return hdr
}

// writeFrame appends one kind-tagged, checksummed frame to f. The kind
// byte rides in the header write, so the payload — snapshot chunks run
// to many MiB — is never copied.
func writeFrame(f *os.File, kind byte, data []byte) error {
	hdr := frameHeader(kind, data)
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := f.Write(data)
	return err
}

// appendFrame appends one framed record to out: the same layout
// writeFrame produces, built in memory so a whole batch becomes one
// file write. scratch is reused across the batch.
func appendFrame(out []byte, scratch *wire.Buffer, rec *kv.ReplRecord) []byte {
	scratch.Reset()
	kv.EncodeReplRecord(scratch, rec)
	payload := scratch.Bytes()
	hdr := frameHeader(walFrameRecord, payload)
	out = append(out, hdr[:]...)
	return append(out, payload...)
}

// appendBatch appends recs as consecutive record frames in ONE file
// write under ONE lock acquisition, reusing one encode buffer across
// the batch, and fsyncs once at the end when the log is in sync mode —
// the group-commit amortization (the old per-record append paid a
// fresh buffer, a lock, a write, and an fsync per record). It reports
// whether it fsynced. A nil log (a store without one) appends nothing.
func (w *wal) appendBatch(recs []kv.ReplRecord) (synced bool, err error) {
	if w == nil || len(recs) == 0 {
		return false, nil
	}
	scratch := wire.NewBuffer(256)
	out := make([]byte, 0, 96*len(recs))
	for i := range recs {
		out = appendFrame(out, scratch, &recs[i])
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return false, fmt.Errorf("kvserver: appending to a closed log")
	}
	if w.broken {
		// Repair first: drop the torn frame the earlier failure may
		// have left (everything at or past good), so this batch —
		// which the pipeline guarantees starts with the failed batch's
		// records — continues the clean prefix gaplessly.
		if err := w.f.Truncate(w.good); err != nil {
			return false, fmt.Errorf("kvserver: truncating torn log tail: %w", err)
		}
		w.broken = false
	}
	if _, err := w.f.Write(out); err != nil {
		w.broken = true
		return false, err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			// The bytes are written but not durable; leave good at the
			// pre-batch size so the repair truncates them and the retry
			// rewrites the batch.
			w.broken = true
			return false, err
		}
	}
	w.good += int64(len(out))
	if w.teeing {
		// A rotation is writing the replacement file: these frames
		// hold records the snapshot does not cover, so they must
		// follow it. Teed only on full success — a failed batch is
		// rewritten by the pipeline and teed when its retry lands, so
		// the replacement file gets each record exactly once.
		w.tail = append(w.tail, out...)
	}
	return w.sync, nil
}

// snapChunkBytes cuts a snapshot's encoding into pieces: the chunks of
// a pushed snapshot and the leading frames of a rotated log. A
// state larger than one wire frame (64 MiB) must still transfer and
// checkpoint, or its log could never be bounded — and the chunk is all
// the memory a rotation holds of the encoding, so it is kept small. A
// variable so tests can exercise the multi-chunk paths without
// gigabytes of state.
var snapChunkBytes = 1 << 20

// snapshotFrames is a captured snapshot in the form rotate and
// finishRotate take: its encoding, one frame's worth at a time.
func snapshotFrames(sn *stateSnapshot) func(emit func([]byte) error) error {
	return func(emit func([]byte) error) error { return encodeSnapshot(sn, snapChunkBytes, emit) }
}

// rotate atomically replaces the log with one that begins at a
// snapshot checkpoint: a fresh file holding the snapshot frames (plus
// any records appended while the rotation ran — see finishRotate's
// tee) is written beside the log, fsynced, and renamed over it;
// subsequent appends continue in the new file. swapped reports whether
// the new file became the log: false on any failure before the rename
// (the old log and its open handle are kept — a failed rotation costs
// log-size bounding, never durability), true once the rename lands,
// even if the follow-up directory fsync fails (the error still reports
// that the rename's own durability is unestablished).
//
// snapshot streams the snapshot's encoding, calling emit with
// consecutive pieces of it (snapshotFrames); each piece becomes
// one frame, so the log never holds more of it in memory than a piece.
//
// rotate is the synchronous form; the policy checkpoint path splits it
// (beginRotate under the stream lock, finishRotate off it) so the
// O(state) encode and write never stall the stream.
func (w *wal) rotate(snapshot func(emit func([]byte) error) error) (swapped bool, err error) {
	w.beginRotate()
	return w.finishRotate(snapshot)
}

// beginRotate opens a rotation window: until the matching finishRotate
// returns, every appendBatch tees its frames into w.tail so they can
// follow the snapshot into the replacement file. The caller must
// already have written every record BELOW the snapshot's coverage to
// the log (Store.drainWALLocked) — the tee captures only what arrives
// after. Rotations are serialized: beginRotate blocks while another is
// in flight.
func (w *wal) beginRotate() {
	w.rotMu.Lock()
	w.mu.Lock()
	w.teeing = true
	w.tail = nil
	w.mu.Unlock()
}

// finishRotate writes the replacement file (magic + snapshot frames, one
// per piece the snapshot function emits), then — briefly under the
// append lock — flushes the teed tail after it, fsyncs, and renames it
// over the log. Appends are blocked only for the tail flush and swap,
// never for the O(snapshot) write. A failure part-way (or a crash)
// leaves the frames written so far in the .ckpt file beside the log,
// which is never read: the log itself is untouched until the rename.
// Must follow a beginRotate.
func (w *wal) finishRotate(snapshot func(emit func([]byte) error) error) (swapped bool, err error) {
	defer w.rotMu.Unlock()
	endTee := func() {
		w.teeing = false
		w.tail = nil
	}
	tmp := w.path + ".ckpt"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		w.mu.Lock()
		endTee()
		w.mu.Unlock()
		return false, fmt.Errorf("kvserver: creating checkpoint log: %w", err)
	}
	err = func() error {
		if _, err := f.WriteString(walMagic); err != nil {
			return err
		}
		return snapshot(func(piece []byte) error {
			return writeFrame(f, walFrameSnapshot, piece)
		})
	}()
	if err != nil {
		f.Close()
		os.Remove(tmp)
		w.mu.Lock()
		endTee()
		w.mu.Unlock()
		return false, fmt.Errorf("kvserver: writing checkpoint log: %w", err)
	}

	// Snapshot frames are on disk; take the append lock to flush the
	// teed tail and swap, so no record can slip between the tail and
	// the rename.
	w.mu.Lock()
	defer w.mu.Unlock()
	defer endTee()
	if w.f == nil {
		f.Close()
		os.Remove(tmp)
		return false, fmt.Errorf("kvserver: rotating a closed log")
	}
	err = func() error {
		if len(w.tail) > 0 {
			if _, err := f.Write(w.tail); err != nil {
				return err
			}
		}
		return f.Sync()
	}()
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return false, fmt.Errorf("kvserver: writing checkpoint log: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return false, fmt.Errorf("kvserver: swapping checkpoint log in: %w", err)
	}
	// Make the rename itself durable: fsync the parent directory, or a
	// power loss could resolve the path to the OLD inode — silently
	// dropping every record fsynced into the new file since the
	// rotation, the exact guarantee LogSync promises.
	var dirErr error
	if dir, err := os.Open(filepath.Dir(w.path)); err != nil {
		dirErr = err
	} else {
		dirErr = dir.Sync()
		dir.Close()
	}
	// The rename made the checkpoint file the log regardless of the
	// directory fsync's outcome, so the handle swap must happen either
	// way — appending through the old handle would write to an orphaned
	// inode. A failed directory fsync is reported (the checkpoint
	// counts as failed, CheckpointFailures fires): until a later
	// rotation succeeds, durability rests on which inode the crash
	// leaves at the path — either replays correctly, but the rotation's
	// size bound is not established.
	old := w.f
	w.f = f
	old.Sync()
	old.Close()
	// The new file is snapshot + complete teed tail: whatever append
	// failure broke the old file is repaired by construction.
	w.broken = false
	if st, serr := f.Stat(); serr == nil {
		w.good = st.Size()
	}
	if dirErr != nil {
		return true, fmt.Errorf("kvserver: fsyncing log directory after checkpoint swap: %w", dirErr)
	}
	return true, nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayWAL reads the log: optional leading snapshot checkpoint
// frames (concatenated — rotation splits a large snapshot), then
// records until EOF or the first damaged frame (a torn tail is normal
// after a crash; anything after it is ignored).
func replayWAL(path string) (snapshot []byte, recs []kv.ReplRecord, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("kvserver: opening log for replay: %w", err)
	}
	defer f.Close()

	var magic [len(walMagic)]byte
	switch _, err := io.ReadFull(f, magic[:]); {
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		// Empty or torn header: the magic is written before any record,
		// so no durable record can exist yet.
		return nil, nil, nil
	case err != nil:
		return nil, nil, fmt.Errorf("kvserver: reading log header: %w", err)
	case string(magic[:]) != walMagic:
		// A log from a binary with a different frame or record layout
		// must fail loudly: the per-frame checksums cannot detect a
		// layout change, so "recover what parses" would silently lose
		// durable commits.
		return nil, nil, fmt.Errorf("kvserver: log %s has unrecognized format %q (want %q): written by an incompatible version; migrate or remove it", path, magic[:], walMagic)
	}

	inSnapshotPrefix := true
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return snapshot, recs, nil // clean EOF or torn header: stop
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > uint32(wire.MaxFrameSize) {
			return snapshot, recs, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return snapshot, recs, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != want {
			return snapshot, recs, nil // corrupt frame: stop replay here
		}
		kind, data := payload[0], payload[1:]
		switch kind {
		case walFrameSnapshot:
			if !inSnapshotPrefix {
				// Rotation rewrites the whole file, so snapshot frames
				// can only ever lead it; one mid-file is corruption.
				return snapshot, recs, nil
			}
			snapshot = append(snapshot, data...)
		case walFrameRecord:
			inSnapshotPrefix = false
			rec, err := kv.DecodeReplRecord(wire.NewReader(data))
			if err != nil {
				return snapshot, recs, nil
			}
			recs = append(recs, rec)
		default:
			return snapshot, recs, nil
		}
	}
}

// CloseLog writes the retained records the write-ahead log lacks, then
// flushes and closes it (if any).
func (s *Store) CloseLog() error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if s.wal == nil {
		return nil
	}
	s.drainWALLocked()
	return s.wal.close()
}
