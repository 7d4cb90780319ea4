package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// Write-ahead log. When Config.LogPath is set, every replication
// stream record (committed transaction, two-phase prepare, phase-two
// decision) is appended (and optionally fsynced) to an append-only
// file *before* its effects become visible, and OpenStore replays the
// log on startup — including reconstructing the prepared-transaction
// table from prepares whose decision had not arrived yet, so a
// restarted participant can still apply the coordinator's outcome. The
// format is length- and checksum-framed, so a torn final record (crash
// mid-append) is detected and dropped rather than corrupting recovery.
//
// A snapshot checkpoint (Store.Checkpoint, or installing a transferred
// snapshot) ROTATES the log: the file is atomically rewritten to hold a
// single snapshot frame covering the stream up to the checkpoint, and
// subsequent records append after it — so a restart replays snapshot +
// tail instead of the full history, and the file's size is bounded by
// the checkpoint cadence rather than the store's lifetime.
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
	// (which the pipeline re-queues, never drops) are rewritten in
	// order. A checkpoint rotation also clears the latch: the
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
		// re-queued records — continues the clean prefix gaplessly.
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
		// re-queued by the pipeline and teed when its retry lands, so
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

// OpenStore builds a store from cfg, replaying the write-ahead log when
// cfg.LogPath is set: the snapshot checkpoint frame (if the log was
// ever rotated) is installed first, then the record tail on top of it.
// Subsequent stream records append to the same log. Prepares in the
// log whose decision never made it are left staged in the prepared-
// transaction table — a retried coordinator decision still lands, and
// SweepOrphans reaps them if none comes. A Config with a negative value
// is refused.
func OpenStore(hlc *clock.HLC, cfg Config) (*Store, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	s := NewStore(hlc, cfg)
	if cfg.LogPath == "" {
		return s, nil
	}
	snapEnc, recs, err := replayWAL(cfg.LogPath)
	if err != nil {
		return nil, err
	}
	if snapEnc != nil {
		sn, err := decodeSnapshot(snapEnc)
		if err != nil {
			// A checkpoint frame that passed its checksum but does not
			// decode is a layout incompatibility, not a torn tail: every
			// record in the file builds on the snapshot, so "recover what
			// parses" would be an empty store wearing a real log's name.
			return nil, fmt.Errorf("kvserver: log %s checkpoint snapshot: %w", cfg.LogPath, err)
		}
		s.repMu.Lock()
		err = s.installSnapshotLocked(sn)
		s.repMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("kvserver: log %s checkpoint snapshot: %w", cfg.LogPath, err)
		}
	}
	for _, rec := range recs {
		if err := s.applyReplicated(rec); err != nil {
			// A semantically inconsistent record (e.g. a decision whose
			// prepare was lost to a failed best-effort append on a
			// backup) ends the usable log, like a torn tail: recover
			// the prefix rather than refusing to start.
			break
		}
	}
	w, err := openWAL(cfg.LogPath, cfg.LogSync)
	if err != nil {
		return nil, err
	}
	s.repMu.Lock()
	s.wal = w
	s.pipe.mu.Lock()
	// Replayed records are already on disk; the durability watermark
	// starts at the head.
	s.pipe.synced = s.repSeq
	s.pipe.needWAL = true
	s.pipe.wal = w
	s.pipe.mu.Unlock()
	s.startFlusherLocked()
	s.repMu.Unlock()
	return s, nil
}

// applyReplicated installs a write-ahead-log record at the next
// position in the stream during recovery, where sequence order is the
// file order.
func (s *Store) applyReplicated(rec kv.ReplRecord) error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if err := s.applyRecordLocked(rec); err != nil {
		return err
	}
	s.maybeCheckpointLocked()
	return nil
}

// ApplyMirroredBatch applies one group-commit batch from the primary
// under ONE stream-lock acquisition — the backup half of the pipeline.
// It refuses the batch while a promotion waits out the grant, or when
// the sender's epoch is older than this replica's: the sender was
// deposed, and acknowledging it would let a stale primary keep serving.
// The guard reads the batch's epoch, not the records', because records
// resent from the retained log legitimately carry older stamps. It also
// refuses a batch carrying a configuration change that conflicts with
// the epoch this replica adopted (see acceptConfigLocked).
// Accepting extends the grant HERE, atomically with the decision to
// accept (under repMu+epochMu, before any ack can go out): the primary
// counts the ack as a lease grant measured from before it sent, so
// the grant must always cover at least what the ack confers — even if
// the apply later fails, an over-extended grant only delays a
// promotion, never endangers it.
//
// A batch that does not start at this replica's stream head changes
// nothing: the *kv.StreamGapError reply names the head, the epoch its
// stream had installed there and a checksum of the record below it, and
// the primary resends from that head. A batch with no records and a
// snapshot piece is a chunk of a pushed snapshot (acceptChunkLocked);
// any other batch drops a push left unfinished. Otherwise the records
// are applied in order; an error on record k leaves records 0..k-1
// applied (a consistent prefix of the primary's stream) and fails the
// batch. The replication-log bound runs once per batch, with the
// live-mirror slack (see mirrorCheckpointSlack): the primary is waiting
// for the ack, so routine truncation is left to the server's checkpoint
// ticker, with a hard ceiling so the memory bound never rests on a
// ticker alone.
func (s *Store) ApplyMirroredBatch(req *kv.MirrorBatchReq) error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if err := s.acceptBatchLocked(req); err != nil {
		return err
	}
	if len(req.Snap) > 0 || req.Last {
		return s.acceptChunkLocked(req)
	}
	s.pushed = nil
	if req.From != s.repSeq {
		gap := &kv.StreamGapError{Head: s.repSeq, StreamEpoch: s.streamEpoch}
		if s.repSeq > s.logBase {
			gap.Last = recordChecksum(&s.commitLog[s.repSeq-1-s.logBase])
		}
		return gap
	}
	for i := range req.Recs {
		if err := s.applyRecordLocked(req.Recs[i]); err != nil {
			return err
		}
	}
	s.maybeCheckpointSlackLocked(mirrorCheckpointSlack)
	return nil
}

// acceptChunkLocked takes one chunk of a snapshot the primary is
// pushing (see Store.pushSnapshot), accepted by the same rule as a
// batch. A chunk at offset 0 starts a push; any other that does not
// extend the one in progress exactly — a piece of an abandoned push,
// arriving late — is refused. The last installs the snapshot, which
// replaces this replica's state and stream, if its configuration passes
// acceptConfigLocked, as a mirrored RecEpoch's must: a deposed primary
// at the adopted epoch must not rebuild a member of the winner's group.
// Caller holds repMu.
func (s *Store) acceptChunkLocked(req *kv.MirrorBatchReq) error {
	if req.Off == 0 {
		s.pushed, s.pushFrom = nil, req.From
	}
	if req.Off != uint64(len(s.pushed)) || req.From != s.pushFrom {
		return fmt.Errorf("%w: snapshot chunk at offset %d of the push of seq %d, which is at offset %d of seq %d", kv.ErrBadRequest, req.Off, req.From, len(s.pushed), s.pushFrom)
	}
	s.pushed = append(s.pushed, req.Snap...)
	if !req.Last {
		return nil
	}
	sn, err := decodeSnapshot(s.pushed)
	s.pushed = nil
	if err != nil {
		return err
	}
	if sn.Seq != req.From {
		return fmt.Errorf("%w: pushed snapshot covers seq %d, announced %d", kv.ErrBadRequest, sn.Seq, req.From)
	}
	// Epoch 1 is every store's birth epoch, a group of its own: no
	// adopted membership to guard.
	s.epochMu.Lock()
	if sn.Epoch > 1 && !s.acceptConfigLocked(sn.Epoch, sn.Members) {
		err = fmt.Errorf("pushed snapshot of a stale configuration at epoch %d: %w", sn.Epoch, s.wrongEpochLocked())
	}
	s.epochMu.Unlock()
	if err != nil {
		return err
	}
	return s.installSnapshotLocked(sn)
}

// acceptBatchLocked is the split-brain guard on the mirror stream plus
// the grant extension (see ApplyMirroredBatch). Caller holds repMu.
func (s *Store) acceptBatchLocked(req *kv.MirrorBatchReq) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if s.promoting {
		return fmt.Errorf("promotion in progress: %w", s.wrongEpochLocked())
	}
	if req.Epoch < s.epoch {
		return fmt.Errorf("batch from deposed primary: %w", s.wrongEpochLocked())
	}
	for i := range req.Recs {
		if rec := &req.Recs[i]; rec.Kind == kv.RecEpoch && !s.acceptConfigLocked(rec.Epoch, rec.Members) {
			return fmt.Errorf("stale configuration change to epoch %d: %w", rec.Epoch, s.wrongEpochLocked())
		}
	}
	if until := time.Now().Add(s.cfg.LeaseDuration); until.After(s.grantUntil) {
		s.grantUntil = until
	}
	return nil
}

// acceptConfigLocked reports whether a mirrored RecEpoch, or a pushed
// snapshot, may install its configuration here. One above the adopted
// epoch advances it. One AT the adopted epoch must carry the membership
// this replica adopted: a loser of a failover adopts its winner's epoch
// out of band before the winner's RecEpoch reaches it, and a deposed
// primary installing the same epoch number for its own group must not
// collect this replica's ack — that would make two primaries at one
// epoch. One below it is history a member still catching up to its
// adopted epoch lacks (a configuration change its winner applied and it
// missed); once its stream has installed the adopted epoch, nothing
// older is legitimate. Caller holds repMu and epochMu.
func (s *Store) acceptConfigLocked(epoch uint64, members []string) bool {
	switch {
	case epoch > s.epoch:
		return true
	case epoch == s.epoch:
		return slices.Equal(members, s.epochMembers)
	default:
		return s.streamEpoch < s.epoch
	}
}

// applyRecordLocked applies one replicated stream record and advances
// the stream head. Caller holds repMu; per-object version order
// follows from stream order. The record is appended to the replication
// log and this replica's own write-ahead log, so a backup is durable
// and can itself feed backups after a failover promotes it.
func (s *Store) applyRecordLocked(rec kv.ReplRecord) error {
	// The per-record epoch check — the splice guard. Every record except
	// RecEpoch must be stamped with exactly the epoch this stream
	// installed at or below the current head (streamEpoch), and a
	// RecEpoch must advance it. A mismatch means the record belongs to a
	// history this replica never installed: the classic case is a
	// diverged-but-BEHIND replica fed by a successor whose retained log
	// no longer reaches the record below its head — its stranded
	// old-epoch records sit at sequence numbers the new stream
	// re-stamped, so the positions all agree, and the first delivered
	// record (stamped with the successor epoch the replica's stream never
	// installed) is the only tell. The check is against the STREAM epoch,
	// not the adopted one: a rejoining member that adopted the new epoch
	// out of band must still apply the RecEpoch that installed it.
	// Rejected with kv.ErrDiverged: such a replica is rebuilt by a
	// pushed snapshot, never by record replay.
	if rec.Kind == kv.RecEpoch && rec.Epoch <= s.streamEpoch || rec.Kind != kv.RecEpoch && rec.Epoch != s.streamEpoch {
		return fmt.Errorf("%w: record at seq %d stamped epoch %d but this replica's stream installed epoch %d there: the histories diverged", kv.ErrDiverged, s.repSeq, rec.Epoch, s.streamEpoch)
	}
	s.clock.Observe(rec.TS)
	switch rec.Kind {
	case kv.RecCommit:
		s.applyCommittedOpsLocked(rec.TS, rec.Ops)
		if rec.TxID != 0 {
			s.recordDecision(rec.TxID, decision{commit: true, commitTS: rec.TS, replSeq: s.repSeq + 1})
		}
	case kv.RecPrepare:
		if err := s.stageReplicatedPrepare(rec); err != nil {
			return err
		}
	case kv.RecDecide:
		s.txMu.Lock()
		txRec := s.txs[rec.TxID]
		delete(s.txs, rec.TxID)
		s.txMu.Unlock()
		if txRec == nil {
			return fmt.Errorf("%w: decision for unknown tx %d: re-form the pair", kv.ErrDiverged, rec.TxID)
		}
		if rec.Commit {
			s.applyStaged(rec.TxID, txRec.oids, rec.TS)
		} else {
			s.releaseLocks(rec.TxID, txRec.oids)
		}
		s.recordDecision(rec.TxID, decision{commit: rec.Commit, commitTS: rec.TS, replSeq: s.repSeq + 1})
	case kv.RecEpoch:
		// A configuration change flowing through the stream (or replayed
		// from the log): adopt the new epoch and membership. Roles and
		// lease requirements follow from the membership; no object state
		// changes. streamEpoch advances HERE — this is an epoch the
		// stream itself installed, unlike an out-of-band AdoptEpoch.
		s.streamEpoch = rec.Epoch
		s.installEpochState(rec.Epoch, append([]string(nil), rec.Members...))
	default:
		return fmt.Errorf("%w: replication record kind %d", kv.ErrBadRequest, rec.Kind)
	}
	// With a WAL the record also rides the batched flush — best-effort,
	// since replicated state is already acknowledged upstream; a write
	// error here only costs durability of this replica (WALFailures
	// counts it), and batching keeps the backup's apply path — and
	// therefore the primary's batch acknowledgment — off the fsync.
	s.appendLocked(rec)
	return nil
}

// applyCommittedOpsLocked installs one committed transaction's ops as
// new versions at commitTS. Caller holds repMu.
func (s *Store) applyCommittedOpsLocked(commitTS clock.Timestamp, ops []*kv.Op) {
	oids, byOID := groupOps(ops)
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		obj := sh.objs[oid]
		if obj == nil {
			obj = &object{}
			sh.objs[oid] = obj
		}
		// A bad record op ends the fold; keep what we have.
		base, _ := newest(obj)
		val, _ := applyOps(base, byOID[oid])
		s.installVersionLocked(obj, commitTS, val, byOID[oid])
		sh.mu.Unlock()
	}
}

// stageReplicatedPrepare reconstructs a primary's prepare from a
// stream record or a snapshot: the transaction enters the prepared
// table and its write locks are taken, with the replicated proposed
// timestamp and the value its ops produce staged as the primary's
// prepare staged it, so a later promotion finds the in-flight
// transaction intact. The primary validated conflicts and compares
// before emitting the record and the stream is applied in order, so the
// locks are free here and the ops apply to the base the primary's did;
// a holder means the replicas diverged.
func (s *Store) stageReplicatedPrepare(rec kv.ReplRecord) error {
	oids, byOID := groupOps(rec.Ops)
	s.txMu.Lock()
	if _, dup := s.txs[rec.TxID]; dup {
		s.txMu.Unlock()
		return fmt.Errorf("%w: replicated duplicate prepare for tx %d", kv.ErrBadRequest, rec.TxID)
	}
	s.txs[rec.TxID] = &txRecord{oids: oids, replicated: true, epoch: rec.Epoch, preparedAt: time.Now()}
	s.txMu.Unlock()
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		obj := sh.objs[oid]
		if obj == nil {
			obj = &object{}
			sh.objs[oid] = obj
		}
		if obj.lock != nil {
			holder := obj.lock.txid
			sh.mu.Unlock()
			s.releaseLocks(rec.TxID, oids)
			s.txMu.Lock()
			delete(s.txs, rec.TxID)
			s.txMu.Unlock()
			return fmt.Errorf("%w: replicated prepare for tx %d found %v locked by tx %d: re-form the pair", kv.ErrDiverged, rec.TxID, oid, holder)
		}
		// Validated by the primary's prepare on this same base, so an
		// error is unreachable; the value reached is kept.
		base, _ := newest(obj)
		staged, _ := applyOps(base, byOID[oid])
		obj.lock = &lockState{txid: rec.TxID, proposed: rec.TS, ops: byOID[oid], done: make(chan struct{}), staged: staged}
		sh.mu.Unlock()
	}
	return nil
}

// CloseLog drains the pipeline's queued records into the write-ahead
// log, stops its flusher, then flushes and closes it (if any).
func (s *Store) CloseLog() error {
	if s.wal == nil {
		return nil
	}
	s.repMu.Lock()
	s.drainWALLocked()
	s.repMu.Unlock()
	s.stopFlusher()
	return s.wal.close()
}
