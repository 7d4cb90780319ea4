package kvserver

import (
	"fmt"
	"hash/crc32"

	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// ReplSeq returns the next sequence number in the replication stream
// (equivalently: how many commits this store has applied).
func (s *Store) ReplSeq() uint64 {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.repSeq
}

// recordSize estimates the wire size of one replication record,
// including the epoch stamp and — for RecEpoch records — the
// membership list, so an epoch-heavy log tail cannot overshoot
// mirrorBatchBytes.
func recordSize(rec *kv.ReplRecord) int {
	n := 32 // kind, epoch, txid, ts, commit flag, op/member counts
	for _, m := range rec.Members {
		n += len(m) + 4
	}
	for _, op := range rec.Ops {
		n += 16 + op.Value.EncodedSize() +
			len(op.Cell.Key) + len(op.Cell.Value) +
			len(op.From) + len(op.To) + len(op.Low) + len(op.High)
	}
	return n
}

// recordChecksum identifies rec by a checksum of its encoding: two
// streams that hold one record at a position agree on it, and two that
// hold different records there almost never do.
func recordChecksum(rec *kv.ReplRecord) uint32 {
	var b wire.Buffer
	kv.EncodeReplRecord(&b, rec)
	return crc32.Checksum(b.Bytes(), crcTable)
}

// Checkpoint captures a snapshot of the store's full state at the
// current stream head, rotates the write-ahead log onto it (restart
// replays snapshot + tail instead of the full history), and truncates
// the ENTIRE in-memory replication log (logBase advances to the head
// — an explicit checkpoint is an operator's full truncation). A
// backup that later turns out to be behind the new logBase is pushed a
// snapshot. It returns the sequence number the checkpoint
// covers. Unlike the policy (maybeCheckpointSlackLocked), which keeps a
// half-cap tail and rotates the file only once the log has earned it,
// the explicit checkpoint always rotates. A store without a
// write-ahead log only truncates.
func (s *Store) Checkpoint() (uint64, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.checkpointLocked(false)
}

// checkpointLocked is the one checkpoint sequence: capture → truncate →
// drain → beginRotate → finish. Caller holds repMu, and the visible
// state must be consistent with repSeq (every emitted record fully
// applied) — true at the end of any emit-and-apply critical section,
// never in the middle of one. async selects the policy flavour: the
// newest half-cap of records is kept (see truncateLogLocked), and the
// O(state) encode and the rotation run on a goroutine, off repMu. The
// explicit Checkpoint truncates everything and finishes inline, under
// repMu (bounded local file work), so its caller learns the rotation's
// outcome. A store without a write-ahead log has nothing to rotate: its
// checkpoint is the truncation.
func (s *Store) checkpointLocked(async bool) (uint64, error) {
	if s.wal == nil {
		s.truncateLogLocked(async)
		s.stats.Checkpoints.Add(1)
		return s.repSeq, nil
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		// A rotation is still encoding/writing off-lock: truncate in
		// memory now (the bound is strict) and let the in-flight
		// checkpoint — or the next one — bound the file.
		s.truncateLogLocked(async)
		return 0, fmt.Errorf("kvserver: a checkpoint rotation is already in progress")
	}
	// Under repMu: capture the minimal in-memory copy and write the
	// already-emitted records into the file.
	sn := s.captureSnapshotLocked()
	s.truncateLogLocked(async)
	if !s.drainWALLocked() {
		// Queued records could not reach the file; rotating now would
		// let a later flush tee them after a snapshot that already
		// covers them (double apply on replay). The truncation stands;
		// the rotation waits for a drain that succeeds.
		s.ckptBusy.Store(false)
		s.stats.CheckpointFailures.Add(1)
		return 0, fmt.Errorf("kvserver: checkpoint aborted: write-ahead log append failing; records re-queued for retry")
	}
	s.wal.beginRotate()
	// Everything appended so far is below the snapshot's coverage and
	// leaves the file with the rotation; what arrives from here on is
	// the new file's tail.
	covered := s.walTailBytes.Load()
	seq := s.repSeq
	if async {
		go s.finishCheckpoint(s.wal, sn, covered)
		return seq, nil
	}
	if err := s.finishCheckpoint(s.wal, sn, covered); err != nil {
		return 0, err
	}
	return seq, nil
}

// truncateLogLocked drops the retained stream tail, keeping the newest
// half-cap of records when retainTail is set: truncating to empty would
// force O(state) transfer on any replica even one record behind, while
// retaining half leaves headroom so the next append does not
// immediately re-trip the bound. It is independent of any WAL rotation:
// a backup behind logBase only needs an on-demand snapshot (the one
// its sender pushes), not a rotated file, and a restart replays the
// un-rotated log correctly — longer, but complete. Its cost is a copy
// of the records it keeps, nothing that grows with the state. Caller
// holds repMu.
func (s *Store) truncateLogLocked(retainTail bool) {
	keep, keepBytes := 0, 0
	if retainTail {
		keep, keepBytes = s.retainableTailLocked()
	}
	if drop := len(s.commitLog) - keep; drop > 0 {
		s.stats.LogRecordsTruncated.Add(uint64(drop))
		// Copy the tail out so the dropped prefix's backing array is
		// actually freed.
		s.commitLog = append([]kv.ReplRecord(nil), s.commitLog[drop:]...)
		s.commitLogBytes = keepBytes
		s.logBase += uint64(drop)
	}
}

// finishCheckpoint is the off-lock tail of a checkpoint: encode the
// captured snapshot and rotate the write-ahead log onto it. The
// O(state) serialization and file write run WITHOUT repMu, and the
// encoding goes to the file a chunk at a time (encodeSnapshot), so a
// rotation's memory is one chunk whatever the state's size; appends
// that race the rotation are teed into the new file by the wal itself
// (see wal.finishRotate). covered is the walTailBytes the snapshot
// subsumes, taken off the count once the new file is the log. The
// policy paths run it on a goroutine; the explicit Checkpoint keeps it
// inline.
func (s *Store) finishCheckpoint(w *wal, sn *stateSnapshot, covered int64) error {
	defer s.ckptBusy.Store(false)
	if _, err := w.finishRotate(snapshotFrames(sn)); err != nil {
		// The counter is the operator signal: the inline policy
		// callers never see this error (a failed bound must not fail
		// the commit that tripped it), so a climbing value is how a
		// full disk shows up before the log's length does. walTailBytes
		// keeps what it counted, so the next trip tries again.
		s.stats.CheckpointFailures.Add(1)
		return fmt.Errorf("kvserver: rotating log onto checkpoint: %w", err)
	}
	s.walTailBytes.Add(-covered)
	s.stats.Checkpoints.Add(1)
	return nil
}

// retainableTailLocked reports how many of the newest log records fit
// within half of the tail's bound, and their estimated byte size (so
// the caller need not rescan them). Caller holds repMu.
func (s *Store) retainableTailLocked() (n, bytes int) {
	maxRecords := s.cfg.ReplicationLogMaxRecords
	for i := len(s.commitLog) - 1; i >= 0; i-- {
		sz := recordSize(&s.commitLog[i])
		if maxRecords > 0 && n+1 > maxRecords/2 || maxRecords == 0 && bytes+sz > logMaxBytes/2 {
			break
		}
		n++
		bytes += sz
	}
	return n, bytes
}

// MaybeCheckpoint enforces the retained-tail bounds, reporting whether
// they had been passed. The emit paths call the locked variant inline
// (the bound is strict on a primary, not best-effort); the server runs
// it on a short ticker too, which is what bounds a live-mirror backup
// between the hard-ceiling triggers (see mirrorCheckpointSlack).
func (s *Store) MaybeCheckpoint() (bool, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.maybeCheckpointLocked()
}

// mirrorCheckpointSlack multiplies the configured bounds on the
// live-mirror apply path: an inline checkpoint there runs while the
// primary synchronously waits for the ack, so routine truncation is
// left to the server's checkpoint ticker — but the memory bound must
// not depend on a ticker alone, so past slack times the cap the apply
// path checkpoints anyway, accepting the one delayed ack.
const mirrorCheckpointSlack = 4

func (s *Store) maybeCheckpointLocked() (bool, error) {
	return s.maybeCheckpointSlackLocked(1)
}

// maybeCheckpointSlackLocked is the policy: two bounds, two costs.
//
// The in-memory tail is bounded STRICTLY by ReplicationLogMaxRecords,
// or by logMaxBytes when that is 0: past the bound, the tail is cut to
// its newest half-cap, at the cost of copying what is kept.
//
// The write-ahead log is bounded by the state it describes. Rotating
// it rewrites the whole multi-version state, so it is worth doing only
// when the records the file has gathered since its snapshot prefix
// (walTailBytes) amount to the state they would be rewritten over
// (stateBytes). Rotating then, and no sooner, bounds both ends: every
// byte a rotation writes was paid for by a byte of log already
// appended, so write amplification is at most 2×, and the file a
// restart replays is at most snapshot prefix + as much tail again. The
// configured tail bound is the floor — the file is never considered
// more often than the tail is cut — and deciding reads two counters,
// never the state.
func (s *Store) maybeCheckpointSlackLocked(slack int) (bool, error) {
	within := s.commitLogBytes <= slack*logMaxBytes
	if maxRecords := s.cfg.ReplicationLogMaxRecords; maxRecords > 0 {
		within = len(s.commitLog) <= slack*maxRecords
	}
	if within {
		return false, nil
	}
	if s.wal != nil && s.walTailBytes.Load() < s.stateBytes.Load() {
		s.truncateLogLocked(true)
		return true, nil
	}
	// The bound held whatever the rotation's fate (the truncation never
	// fails), and a failed bound must not fail the commit that tripped
	// it: CheckpointFailures is the operator's signal.
	s.checkpointLocked(true)
	return true, nil
}

// emitLocked appends one record to the replication stream: it assigns
// the next sequence number, appends the record to the in-memory
// replication log, and hands it to the group-commit pipeline, which
// batches the mirror RPC and the write-ahead-log append off the stream
// lock. Emission is purely local and cannot fail; callers whose
// acknowledgment promises replication or durability (commits,
// prepares, epoch changes) call waitReplicated with the returned
// sequence number AFTER releasing repMu — that wait, outside the
// stream lock, is what lets concurrent writers share round trips and
// fsyncs. Callers whose record is fire-and-forget (abort decisions,
// which must release locks no matter what) simply do not wait; a
// missed record surfaces on the backup as a loud sequence gap.
//
// Caller holds repMu — the native write paths hold it across the
// emission AND the application of the record's effects, so stream
// order, log order, per-object version order, and any state snapshot
// captured under repMu all agree. Every record is stamped with the
// epoch in effect when it enters the stream — except RecEpoch, whose
// Epoch field carries the new epoch it installs.
func (s *Store) emitLocked(rec kv.ReplRecord) uint64 {
	if rec.Kind != kv.RecEpoch {
		s.epochMu.Lock()
		rec.Epoch = s.epoch
		s.epochMu.Unlock()
	} else if rec.Epoch > s.streamEpoch {
		// The stream itself is installing this epoch; record stamps from
		// here on must match it (see streamEpoch).
		s.streamEpoch = rec.Epoch
	}
	return s.appendLocked(rec)
}

// appendLocked puts rec — emitted here, or applied from a primary's
// stream or the write-ahead log — at the head of this store's stream:
// the next sequence number, the retained tail, and the pipeline, which
// must see every record (it feeds the sinks: the write-ahead log and
// any attached members). Caller holds repMu.
func (s *Store) appendLocked(rec kv.ReplRecord) uint64 {
	seq := s.repSeq
	s.repSeq++
	s.commitLog = append(s.commitLog, rec)
	size := recordSize(&rec)
	s.commitLogBytes += size
	s.walTailBytes.Add(int64(size))
	s.enqueueLocked(seq, rec)
	return seq
}
