package kvserver

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"yesquel/internal/clock"
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
// the explicit checkpoint always rotates — but for a store whose epoch
// in force its stream has not installed (see captureSnapshotLocked):
// that one truncates and returns an error saying it did not rotate. A
// store without a write-ahead log only truncates.
func (s *Store) Checkpoint() (uint64, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.checkpointLocked(false)
}

// checkpointLocked is the one checkpoint sequence: capture → drain →
// truncate → beginRotate → finish. Caller holds repMu, and the visible
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
	// already-emitted records into the file, so the truncation can cut
	// them too.
	sn := s.captureSnapshotLocked()
	drained := s.drainWALLocked()
	s.truncateLogLocked(async)
	if sn == nil {
		// The stream has not installed the epoch in force: the log keeps
		// its file until it does (see captureSnapshotLocked).
		s.ckptBusy.Store(false)
		return 0, fmt.Errorf("kvserver: checkpoint truncated the log but did not rotate it: epoch %d was adopted, and the stream has installed only epoch %d", s.replica.epoch, s.replica.streamEpoch)
	}
	if !drained {
		// Records could not reach the file; rotating now would let a
		// later write tee them after a snapshot that already covers them
		// (double apply on replay). The truncation stands, keeping them;
		// the rotation waits for a drain that succeeds.
		s.ckptBusy.Store(false)
		s.stats.CheckpointFailures.Add(1)
		return 0, fmt.Errorf("kvserver: checkpoint aborted: write-ahead log append failing; records kept for retry")
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
// its sender pushes when its position falls below logBase), not a
// rotated file, and a restart replays the un-rotated log correctly —
// longer, but complete. Its cost is a copy of the records it keeps,
// nothing that grows with the state.
//
// It never cuts past the floor: the records the write-ahead log does
// not hold yet, and those a member being caught up from a pushed
// snapshot still needs (replCore.floor). While the floor holds it back,
// a cut waits until it can drop at least half the tail, so each copy
// is paid for by the records it frees. Caller holds repMu; the tail
// changes under pipe.mu too, where the log writers and the member
// senders read it.
func (s *Store) truncateLogLocked(retainTail bool) {
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	floor := p.core.floor()
	if s.wal != nil {
		floor = min(floor, p.walCursor)
	}
	drop := int(floor - s.logBase)
	if 2*drop < len(s.commitLog) {
		return
	}
	if retainTail {
		drop = min(drop, len(s.commitLog)-s.retainableTailLocked())
	}
	if drop == 0 {
		return
	}
	for i := range s.commitLog[:drop] {
		s.commitLogBytes -= recordSize(&s.commitLog[i])
	}
	s.stats.LogRecordsTruncated.Add(uint64(drop))
	// Copy the tail out so the dropped prefix's backing array is
	// actually freed.
	s.commitLog = append([]kv.ReplRecord(nil), s.commitLog[drop:]...)
	s.logBase += uint64(drop)
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
// within half of the tail's bound. Caller holds repMu.
func (s *Store) retainableTailLocked() int {
	n, bytes := 0, 0
	maxRecords := s.cfg.ReplicationLogMaxRecords
	for i := len(s.commitLog) - 1; i >= 0; i-- {
		sz := recordSize(&s.commitLog[i])
		if maxRecords > 0 && n+1 > maxRecords/2 || maxRecords == 0 && bytes+sz > logMaxBytes/2 {
			break
		}
		n++
		bytes += sz
	}
	return n
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
// the next sequence number and appends the record to the retained tail,
// from which the member senders batch the mirror RPCs off the stream
// lock. Emission is purely local and cannot fail; callers whose
// acknowledgment promises replication or durability (commits,
// prepares, epoch changes) call waitReplicated with the returned
// sequence number AFTER releasing repMu, which writes the record to the
// write-ahead log and waits — that wait, outside the stream lock, is
// what lets concurrent writers share round trips and fsyncs. Callers
// whose record is fire-and-forget (abort decisions, which must release
// locks no matter what) only write the log (writeWAL); a missed record
// surfaces on the backup as a loud sequence gap.
//
// Caller holds repMu — the native write paths hold it across the
// emission AND the application of the record's effects, so stream
// order, log order, per-object version order, and any state snapshot
// captured under repMu all agree. Every record is stamped with the
// epoch in effect when it enters the stream — except RecEpoch, whose
// Epoch field carries the new epoch it installs (InstallEpoch).
func (s *Store) emitLocked(rec kv.ReplRecord) uint64 {
	if rec.Kind != kv.RecEpoch {
		rec.Epoch = s.replica.epoch
	}
	return s.appendLocked(rec)
}

// appendLocked puts rec — emitted here, or applied from a primary's
// stream or the write-ahead log — at the head of this store's stream:
// the next sequence number and the retained tail, which the sinks read
// (the write-ahead log and any attached members), whose senders it
// wakes. Caller holds repMu.
func (s *Store) appendLocked(rec kv.ReplRecord) uint64 {
	seq := s.repSeq
	s.repSeq++
	size := recordSize(&rec)
	s.commitLogBytes += size
	s.walTailBytes.Add(int64(size))
	p := &s.pipe
	p.mu.Lock()
	s.commitLog = append(s.commitLog, rec)
	p.core.emit(seq, &rec)
	for _, m := range p.members {
		if !m.c.parked {
			m.wakeUp()
		}
	}
	p.mu.Unlock()
	return seq
}

// InstallEpoch moves the group to a new configuration, epoch newer than
// the current one, as a RecEpoch record in the stream, so the whole group
// agrees on the configuration history in stream order. The membership is
// the quorum's and the lease's (replCore.install): the senders of the
// members it does not name are detached before the record is emitted.
// It returns once the record has cleared the durability watermark; a
// replication failure leaves the epoch installed locally — the change is
// real — and reports that the group has not acknowledged it.
func (s *Store) InstallEpoch(newEpoch uint64, members []string) error {
	s.repMu.Lock()
	if cur := s.replica.epoch; newEpoch <= cur {
		s.repMu.Unlock()
		return fmt.Errorf("kvserver: epoch %d does not supersede current epoch %d", newEpoch, cur)
	}
	s.pipe.mu.Lock()
	s.stopSendersLocked(s.pipe.core.install(newEpoch, members))
	s.pipe.mu.Unlock()
	rec := kv.ReplRecord{Kind: kv.RecEpoch, Epoch: newEpoch, Members: slices.Clone(members)}
	seq := s.emitLocked(rec)
	s.installLocked(rec.Epoch, rec.Members)
	s.maybeCheckpointLocked()
	s.repMu.Unlock()
	if err := s.waitReplicated(seq); err != nil {
		return fmt.Errorf("kvserver: replicating epoch %d: %w", newEpoch, err)
	}
	return nil
}

// AdoptEpoch installs a configuration this member learned out-of-band
// (a deposed primary told of its successor via an ErrWrongEpoch
// rejection). Unlike InstallEpoch it emits no stream record: this
// member is not authoritative for the new epoch, it only needs to stop
// serving the old one and redirect clients. No-op unless newEpoch is
// newer.
func (s *Store) AdoptEpoch(newEpoch uint64, members []string) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.epochChangedLocked(s.replica.adopt(newEpoch, members, time.Now()))
}

// installLocked carries out replicaCore.install: the stream installed
// epoch with members at its head. Caller holds repMu.
func (s *Store) installLocked(epoch uint64, members []string) {
	s.epochChangedLocked(s.replica.install(epoch, members, time.Now()))
}

func (s *Store) epochChangedLocked(changed bool) {
	if changed {
		s.publishLocked()
		s.stats.EpochBumps.Add(1)
	}
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
// under ONE stream-lock acquisition — the backup half of the pipeline. It
// carries out the replica core's verdicts (epoch.go): the batch is judged
// first, which extends the grant before any ack can go out — even if the
// apply then fails, an over-extended grant only delays a promotion. A
// snapshot chunk's bytes are kept, and the last installs the snapshot,
// replacing this replica's state and stream. A batch of records that does
// not start at the head changes nothing: the gap reply carries a checksum
// of the record below the head too, and the primary resends from there.
// Otherwise the records are applied in order; an error on record k leaves
// records 0..k-1 applied (a consistent prefix of the primary's stream)
// and fails the batch. The replication-log bound runs once per batch,
// with the live-mirror slack (see mirrorCheckpointSlack). Once repMu is
// released, the records applied are written to the write-ahead log, with
// no GroupCommitInterval wait (the sender coalesced the batch), so the
// ack follows the write. The write is best-effort: a failure costs only
// this replica's durability (WALFailures counts it), not the batch's
// ack, and the next batch's write retries the records.
func (s *Store) ApplyMirroredBatch(req *kv.MirrorBatchReq) error {
	s.repMu.Lock()
	err := s.applyBatchLocked(req)
	head := s.repSeq
	s.repMu.Unlock()
	s.writeWAL(head, false)
	return err
}

// applyBatchLocked is ApplyMirroredBatch under repMu.
func (s *Store) applyBatchLocked(req *kv.MirrorBatchReq) error {
	c := &s.replica
	if _, err := c.batch(req.Epoch, req.Recs, time.Now()); err != nil {
		s.stats.WrongEpochRejects.Add(1)
		return err
	}
	if len(req.Snap) > 0 || req.Last {
		complete, err := c.chunk(req.Off, req.From, len(req.Snap), req.Last)
		if err != nil {
			return err
		}
		s.pushed = append(s.pushed[:req.Off], req.Snap...)
		if !complete {
			return nil
		}
		sn, err := decodeSnapshot(s.pushed)
		s.pushed = nil
		if err != nil {
			return err
		}
		if err := c.snapshot(sn.Epoch, sn.Members, sn.Seq); err != nil {
			var we *kv.WrongEpochError
			if errors.As(err, &we) {
				s.stats.WrongEpochRejects.Add(1)
			}
			return err
		}
		return s.installSnapshotLocked(sn)
	}
	s.pushed = nil
	if gap := c.records(req.From, s.repSeq); gap != nil {
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

// applyRecordLocked applies one replicated stream record, once the
// splice guard (replicaCore.record) passes it, and advances the stream
// head. Caller holds repMu; per-object version order follows from
// stream order. The record is appended to the replication log and this
// replica's own write-ahead log, so a backup is durable and can itself
// feed backups after a failover promotes it.
func (s *Store) applyRecordLocked(rec kv.ReplRecord) error {
	if err := s.replica.record(&rec, s.repSeq); err != nil {
		return err
	}
	s.clock.Observe(rec.TS)
	switch rec.Kind {
	case kv.RecCommit:
		s.applyCommittedOpsLocked(rec.TS, rec.Ops)
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
		s.decideLocked(rec.TxID, txRec.oids, decision{commit: rec.Commit, commitTS: rec.TS, replSeq: s.repSeq + 1})
	case kv.RecEpoch:
		// A configuration change flowing through the stream (or replayed
		// from the log): roles and lease requirements follow from the
		// membership; no object state changes.
		s.installLocked(rec.Epoch, rec.Members)
	default:
		return fmt.Errorf("%w: replication record kind %d", kv.ErrBadRequest, rec.Kind)
	}
	// The record joins this store's stream; the caller writes it to the
	// write-ahead log once repMu is released (ApplyMirroredBatch).
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
		obj.lock = &lockState{txid: rec.TxID, proposed: rec.TS, ops: byOID[oid], writes: withoutCompares(byOID[oid]), done: make(chan struct{}), staged: staged}
		sh.mu.Unlock()
	}
	return nil
}
