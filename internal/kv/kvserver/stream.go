package kvserver

import (
	"fmt"

	"yesquel/internal/kv"
)

// ReplSeq returns the next sequence number in the replication stream
// (equivalently: how many commits this store has applied).
func (s *Store) ReplSeq() uint64 {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.repSeq
}

// StreamEpoch returns the epoch this store's replication stream had
// installed at its head — unlike Epoch it never reflects an
// out-of-band AdoptEpoch, only RecEpoch records and snapshot installs.
// A resync request carries it so the source can detect a diverged-but-
// behind history (see SyncRecords).
func (s *Store) StreamEpoch() uint64 {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.streamEpoch
}

// StartResync puts the store in resync mode: replicated records that
// arrive ahead of the contiguous stream are buffered instead of
// rejected. Call before the primary attaches this store as its mirror,
// so live commits and the history stream can interleave safely.
func (s *Store) StartResync() {
	s.repMu.Lock()
	s.resyncing = true
	s.repMu.Unlock()
}

// FinishResync leaves resync mode. It fails if buffered records remain
// unapplied — that means the history stream stopped short of them.
func (s *Store) FinishResync() error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.resyncing = false
	if len(s.pending) > 0 {
		return fmt.Errorf("kvserver: resync incomplete: %d records still pending above seq %d", len(s.pending), s.repSeq)
	}
	return nil
}

// syncBatchBytes caps the estimated payload of one sync response,
// comfortably below the wire frame limit regardless of record count.
const syncBatchBytes = 4 << 20

// SyncRecords returns up to max replication-log records starting at
// sequence number from — fewer when the batch would grow past
// syncBatchBytes — plus the current head of the stream and the oldest
// sequence number still in the log (logBase). At least one record is
// always returned when any exists at from, so a single large commit
// (necessarily under the frame limit, it crossed the wire once
// already) cannot stall a resync.
//
// A from below logBase returns an empty batch with base > from — the
// history was truncated at a snapshot checkpoint, and the caller must
// install a snapshot instead (the server surfaces this as
// SyncResp.TooOld). A from beyond the stream head means the requester
// applied records this store never emitted: the replicas hold
// irreconcilable histories, reported loudly as kv.ErrDiverged
// (mirroring ApplyMirrored's strict check) rather than answered with a
// silently empty batch the requester would mistake for "caught up".
//
// reqEpoch is the requester's STREAM epoch (see streamEpoch) and closes
// the diverged-but-BEHIND hole the seq-only checks left open: an
// isolated old primary whose stranded old-epoch records sit at
// sequence numbers this stream later re-stamped passes every position
// check once the head grows past it. When the retained log still holds
// the record just below from, the epoch in force there is compared
// against reqEpoch; a mismatch means the requester's history below
// from is NOT a prefix of this stream, rejected with kv.ErrDiverged —
// the requester can only rejoin by state transfer. When that record
// was truncated the check is skipped here; the requester's own
// per-record apply check (applyRecordLocked) still catches the splice
// on the first delivered record.
func (s *Store) SyncRecords(from uint64, max int, reqEpoch uint64) (recs []kv.SyncRec, head, base uint64, err error) {
	if max <= 0 {
		max = 512
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if from > s.repSeq {
		return nil, s.repSeq, s.logBase, fmt.Errorf("%w: requested seq %d is beyond this replica's head %d: the requester applied records never in this stream, re-form the group", kv.ErrDiverged, from, s.repSeq)
	}
	if from > s.logBase && from <= s.logBase+uint64(len(s.commitLog)) {
		// The record below from is retained; its stamp is the epoch this
		// stream had in force there (a RecEpoch's stamp is the epoch it
		// installed, equally the epoch in force after it).
		if srcEpoch := s.commitLog[from-1-s.logBase].Epoch; srcEpoch != reqEpoch {
			return nil, s.repSeq, s.logBase, fmt.Errorf("%w: requester's stream is at epoch %d below seq %d but this stream had epoch %d in force there: the histories diverged, rejoin by state transfer", kv.ErrDiverged, reqEpoch, from, srcEpoch)
		}
	}
	return s.retainedLocked(from, max), s.repSeq, s.logBase, nil
}

// retainedLocked slices up to max records of the retained tail starting
// at sequence number from, stopping early once the batch would pass
// syncBatchBytes (at least one record always goes). A from outside the
// retained window — truncated below logBase, or at the head — yields
// nothing. Caller holds repMu.
func (s *Store) retainedLocked(from uint64, max int) []kv.SyncRec {
	if from < s.logBase || from >= s.logBase+uint64(len(s.commitLog)) {
		return nil
	}
	end := from + uint64(max)
	if top := s.logBase + uint64(len(s.commitLog)); end > top {
		end = top
	}
	recs := make([]kv.SyncRec, 0, end-from)
	bytes := 0
	for seq := from; seq < end; seq++ {
		rec := s.commitLog[seq-s.logBase]
		sz := recordSize(&rec)
		if len(recs) > 0 && bytes+sz > syncBatchBytes {
			break
		}
		bytes += sz
		recs = append(recs, kv.SyncRec{Seq: seq, Rec: rec})
	}
	return recs
}

// recordSize estimates the wire size of one replication record,
// including the epoch stamp and — for RecEpoch records — the
// membership list, so an epoch-heavy log tail cannot overshoot
// syncBatchBytes.
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

// LogBounds reports the retained replication log's window: base is the
// oldest sequence number still held, head the next to be assigned, so
// head-base records are in memory (tests and diagnostics).
func (s *Store) LogBounds() (logBase, head uint64) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.logBase, s.repSeq
}

// Checkpoint captures a snapshot of the store's full state at the
// current stream head, rotates the write-ahead log onto it (restart
// replays snapshot + tail instead of the full history), and truncates
// the ENTIRE in-memory replication log (logBase advances to the head
// — an explicit checkpoint is an operator's full truncation). A
// backup that later asks to sync from below the new logBase is served
// by state transfer. It returns the sequence number the checkpoint
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
// explicit Checkpoint truncates everything and finishes inline, so its
// caller learns the rotation's outcome. A store without a write-ahead
// log has nothing to rotate: its checkpoint is the truncation.
//
//yesqlint:allow repmublock -- deliberate: the explicit Checkpoint keeps the rotation inline under repMu (bounded local file work); the policy paths run finishCheckpoint on a goroutine, off-lock
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
// serving a resync below logBase only needs an on-demand snapshot
// (ServeSnapshotChunk), not a rotated file, and a restart replays the
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
