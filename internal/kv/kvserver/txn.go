package kvserver

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

type lockState struct {
	txid     uint64
	proposed clock.Timestamp
	// ops are the transaction's ops on the object, compares included, as
	// its RecPrepare carries them; writes are the ops minus the compares,
	// filtered once when the lock is taken: what the commit installs and
	// a fast commit's RecCommit carries.
	ops, writes []*kv.Op
	done        chan struct{} // closed when the lock is released
	// staged is the value ops produce on the object's newest version,
	// computed when the lock was taken — by lockObject's dry run, or by
	// stageReplicatedPrepare on a replica — so that commit installs it
	// instead of applying the ops a second time. No version can land on
	// the object under the lock: on a primary every write path takes
	// it, and a replica applies its primary's stream in order, in which
	// nothing wrote the object between the prepare and its decision.
	staged kv.Layered
}

// txRecord is a two-phase transaction prepared on this store. A fast
// commit never enters the table: nothing but itself can resolve it.
type txRecord struct {
	oids []kv.OID
	// replicated: the prepare's RecPrepare record is in the replication
	// stream, so the decision (commit or abort) must be replicated too.
	// Until then the prepare is still taking its locks, and has not voted:
	// a Commit is refused, and an abort emits nothing.
	replicated bool
	// epoch is the group epoch under which the prepare was accepted.
	// SweepOrphans may only TTL-abort a prepare whose epoch has been
	// superseded; while it is current the coordinator may still
	// legitimately drive a decided commit.
	epoch uint64
	// preparedAt drives the orphan-prepare TTL, with the time the epoch
	// that superseded it came into force: a coordinator gets a full TTL
	// after a failover to redirect its decision.
	preparedAt time.Time
}

// decision is a two-phase transaction's resolved outcome, kept in the
// decided-transaction table for decidedTTL so retried phase-two requests
// are answered with the recorded outcome instead of "unknown tx". A fast
// commit records none: its client never re-sends it, so its entry would
// only evict an outcome a retried decision still needs.
type decision struct {
	commit   bool
	commitTS clock.Timestamp
	// replSeq is 1 + the stream sequence number of the record that
	// carried this outcome (0 = none): the record this store emitted, or
	// applied from its primary's stream or its log, or, for an outcome
	// installed from a snapshot, the snapshot's Seq, which covers it. A
	// retried commit is acknowledged only after that record clears the
	// durability watermark — on a promoted replica too, whose new group
	// may not hold it yet: acking a duplicate for a record too few
	// members hold would break the acked-writes-survive-failover
	// guarantee the first ack refused to break.
	replSeq uint64
}

// decidedMax bounds the decided-transaction table; beyond it the
// oldest entries are evicted early (before their TTL). Only two-phase
// outcomes enter it, so what it has to hold scales with the 2PC rate,
// not with the commit rate.
const decidedMax = 1 << 16

// decidedEntry is one slot of the decided table's FIFO eviction queue.
type decidedEntry struct {
	txid uint64
	at   time.Time
}

// groupOps partitions ops by OID, preserving per-OID order, and returns
// the distinct OIDs in sorted order (so lock acquisition is
// deterministic).
func groupOps(ops []*kv.Op) ([]kv.OID, map[kv.OID][]*kv.Op) {
	byOID := make(map[kv.OID][]*kv.Op)
	var oids []kv.OID
	for _, op := range ops {
		if _, ok := byOID[op.OID]; !ok {
			oids = append(oids, op.OID)
		}
		byOID[op.OID] = append(byOID[op.OID], op)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids, byOID
}

// lockOps takes txid's lock on each of oids, in order, each with its
// ops (byOID, from groupOps) checked and staged by lockObject: the one
// way Prepare and FastCommit take their locks. Once every lock is held
// it chooses the proposed commit timestamp and publishes it on them.
// Issuing it only then guarantees it exceeds the snapshot of every read
// already served for these objects (each read Observed its snapshot
// before finding the object unlocked), so the eventual commit timestamp
// (>= proposed) cannot land below a snapshot that missed it. It returns
// the locks (locks[i] is oids[i]'s), the proposed timestamp and, for
// each OpCmpMaxCells op of ops in op order, the cell count of its object
// with the transaction's ops applied (nil when ops bound nothing). On
// failure it releases every lock it took.
func (s *Store) lockOps(txid uint64, start clock.Timestamp, ops []*kv.Op, oids []kv.OID, byOID map[kv.OID][]*kv.Op) ([]*lockState, clock.Timestamp, []uint64, error) {
	locks := make([]*lockState, 0, len(oids))
	for _, oid := range oids {
		lock, err := s.lockObject(txid, start, oid, byOID[oid])
		if err != nil {
			s.releaseLocks(txid, oids[:len(locks)])
			if !errors.Is(err, kv.ErrCompare) {
				s.stats.Conflicts.Add(1)
			}
			return nil, 0, nil, err
		}
		locks = append(locks, lock)
	}
	// Until now proposed was 0 (a sentinel): readers that hit a lock in
	// this window waited conservatively.
	proposed := s.clock.Observe(start)
	for i, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		locks[i].proposed = proposed
		sh.mu.Unlock()
	}
	var cells []uint64
	for _, op := range ops {
		if op.Kind == kv.OpCmpMaxCells {
			i, _ := slices.BinarySearch(oids, op.OID)
			cells = append(cells, uint64(locks[i].staged.NumCells()))
		}
	}
	return locks, proposed, cells, nil
}

// lockObject takes txid's lock on oid for ops, the transaction's ops on
// it. First-committer-wins at cell granularity: a version committed
// after start conflicts if either side is structural or their touch
// sets intersect; purely commutative deltas on disjoint cells
// (concurrent inserts into one DBT leaf) pass, and an object the
// transaction only compares has nothing to conflict. The ops are then
// applied, compares included, so the decision cannot fail later and has
// nothing left to compute: the base cannot change under the lock.
func (s *Store) lockObject(txid uint64, start clock.Timestamp, oid kv.OID, ops []*kv.Op) (*lockState, error) {
	sh := s.shardFor(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objs[oid]
	if obj == nil {
		obj = &object{}
	}
	if obj.lock != nil {
		return nil, fmt.Errorf("%w: %v locked by tx %d", kv.ErrConflict, oid, obj.lock.txid)
	}
	writes := withoutCompares(ops)
	if len(writes) > 0 {
		if err := conflictLocked(obj, start, writes); err != nil {
			return nil, err
		}
	}
	base, _ := newest(obj)
	staged, err := applyOps(base, ops)
	if err != nil {
		if !errors.Is(err, kv.ErrCompare) {
			err = fmt.Errorf("%w: %v", kv.ErrBadRequest, err)
		}
		return nil, err
	}
	obj.lock = &lockState{txid: txid, ops: ops, writes: writes, done: make(chan struct{}), staged: staged}
	sh.objs[oid] = obj
	return obj.lock, nil
}

// Prepare validates and locks the transaction's writes (phase one of
// two-phase commit). On success it returns the proposed commit
// timestamp (a lower bound chosen by this participant) — and the staged
// ops and locks are in the stream as a RecPrepare record, held by a
// quorum of the members (if any), so a promoted backup holds the
// prepared transaction and can still apply the coordinator's decision.
// On conflict it returns kv.ErrConflict and leaves no state behind.
//
// The transaction's compare ops (kv "Compare ops") are checked here, in
// op order, against each object's newest value under its lock; one that
// fails fails the prepare with its *kv.CompareError and leaves no state
// behind either. An object the transaction only compares is locked until
// the decision like the others, and gets no version when it commits.
func (s *Store) Prepare(txid uint64, start clock.Timestamp, ops []*kv.Op) (clock.Timestamp, error) {
	proposed, _, err := s.prepare(txid, start, ops)
	return proposed, err
}

// prepare is Prepare, with the cell counts its yes vote reports
// (kv.PrepareResp.Cells).
func (s *Store) prepare(txid uint64, start clock.Timestamp, ops []*kv.Op) (clock.Timestamp, []uint64, error) {
	s.stats.Prepares.Add(1)
	oids, byOID := groupOps(ops)
	s.txMu.Lock()
	if _, dup := s.txs[txid]; dup {
		s.txMu.Unlock()
		return 0, nil, fmt.Errorf("%w: duplicate prepare for tx %d", kv.ErrBadRequest, txid)
	}
	rec := &txRecord{oids: oids, epoch: s.Epoch(), preparedAt: time.Now()}
	s.txs[txid] = rec
	s.txMu.Unlock()

	_, proposed, cells, err := s.lockOps(txid, start, ops, oids, byOID)
	if err != nil {
		s.txMu.Lock()
		delete(s.txs, txid)
		s.txMu.Unlock()
		return 0, nil, err
	}

	// Replicate the prepared state before voting yes: the vote promises
	// the coordinator this participant can commit, so the promise must
	// survive a primary failure. The replicated-flag publication and the
	// emission are one repMu critical section: a state snapshot
	// (captured under repMu) carries exactly the prepares whose
	// RecPrepare is below its sequence number — rec.replicated set —
	// and skips the rest, whose records land in the tail the snapshot
	// installer replays. The durability wait happens after the lock: if
	// the record never clears the watermark (the backup is dead or
	// diverged), the vote is no — but the record DID enter the stream,
	// so the abort owes it a decision record (s.abort emits one). The
	// record carries the compare ops too, so a promoted backup or a
	// snapshot's installer holds the same locks, a participant that only
	// compares included: its vote is a promise like any other.
	s.repMu.Lock()
	s.txMu.Lock()
	if s.txs[txid] != rec {
		// An abort (the coordinator's, which gave up on another vote, or
		// the orphan sweep's) resolved the transaction while it was taking
		// its locks, and released only those it held then. Nothing of it
		// is in the stream; the vote is no.
		s.txMu.Unlock()
		s.releaseLocks(txid, oids)
		s.repMu.Unlock()
		return 0, nil, fmt.Errorf("%w: tx %d aborted during prepare", kv.ErrConflict, txid)
	}
	rec.replicated = true
	s.txMu.Unlock()
	seq := s.emitLocked(kv.ReplRecord{Kind: kv.RecPrepare, TxID: txid, TS: proposed, Ops: ops})
	s.maybeCheckpointLocked()
	s.repMu.Unlock()
	if err := s.waitReplicated(seq); err != nil {
		// abort resolves the prepared transaction if it is still
		// staged (releasing the locks and emitting the owed abort
		// decision) and is a no-op if something else already did.
		s.abort(txid, false)
		return 0, nil, fmt.Errorf("kv: replicating prepare: %w", err)
	}
	return proposed, cells, nil
}

// Commit applies a prepared transaction's staged operations at commitTS
// and releases its locks (phase two of two-phase commit). Commit is
// idempotent: a retried decision for a transaction already in the
// decided table is acknowledged with the recorded outcome — nil for a
// commit, kv.ErrConflict for an abort — so a coordinator whose first
// acknowledgment was lost can safely re-send the decision, including
// to a promoted backup. Committing a transaction this store has never
// heard of is an error.
func (s *Store) Commit(txid uint64, commitTS clock.Timestamp) error {
	applied, err := s.commit(txid, commitTS)
	if applied {
		s.stats.Commits.Add(1)
	}
	return err
}

func (s *Store) commit(txid uint64, commitTS clock.Timestamp) (applied bool, err error) {
	// The whole transition — emit the decision, apply the staged ops,
	// record the outcome — is one repMu critical section: the stream
	// position and the visible state never disagree, which is what lets
	// a state snapshot captured under repMu (and tagged with repSeq)
	// claim to cover every record below it.
	//
	// The DURABILITY WAIT happens after the critical section: the
	// record is emitted and its effects applied under repMu, but the
	// client's acknowledgment is withheld until the record clears the
	// pipeline's watermark (backup ack + fsync). A wait failure returns
	// an error with the record already in the local stream — the caller
	// sees the same uncertainty a lost acknowledgment produces, and the
	// acked-writes-survive-failover guarantee holds because no ack went
	// out.
	s.repMu.Lock()
	rec, dup, err := s.takePrepared(txid)
	if rec == nil {
		s.repMu.Unlock()
		if err == nil && dup.replSeq > 0 {
			// Duplicate decision for an applied commit: ack only once
			// its record is replicated — the retry may be the client's
			// way of asking "did that really land?".
			if werr := s.waitReplicated(dup.replSeq - 1); werr != nil {
				return false, fmt.Errorf("%w: replicating commit: %v", kv.ErrUncertain, werr)
			}
		}
		return false, err
	}
	s.clock.Observe(commitTS)
	// The per-object locks are still held here, so the replication
	// stream order, the log order, and per-object version order all
	// agree — on this store and, because batches apply in sequence, on
	// the backup. The prepare's record carried the ops: only the decision
	// goes on the wire.
	seq := s.emitLocked(kv.ReplRecord{Kind: kv.RecDecide, TxID: txid, TS: commitTS, Commit: true})
	s.decideLocked(txid, rec.oids, decision{commit: true, commitTS: commitTS, replSeq: seq + 1})
	s.maybeCheckpointLocked()
	s.repMu.Unlock()
	if err := s.waitReplicated(seq); err != nil {
		// The record is in the local stream and its effects are
		// visible, but the replication/durability promise behind an
		// acknowledgment cannot be given: the outcome is exactly what
		// ErrUncertain names — applied here, surviving a failover only
		// if the batch reached the backup after all.
		return true, fmt.Errorf("%w: replicating commit: %v", kv.ErrUncertain, err)
	}
	return true, nil
}

// decideLocked carries out a two-phase transaction's decision, the
// transaction already taken from the prepared table: the one step the
// primary's commit and abort and a replica's RecDecide share. A commit
// installs the staged values, an abort releases the locks, and either
// outcome enters the decided table. Caller holds repMu.
func (s *Store) decideLocked(txid uint64, oids []kv.OID, d decision) {
	if d.commit {
		s.applyStaged(txid, oids, d.commitTS)
	} else {
		s.releaseLocks(txid, oids)
	}
	s.recordDecision(txid, d)
}

// withoutCompares returns ops minus their compare ops — what a commit
// installs and its RecCommit carries — or ops itself when they hold none.
func withoutCompares(ops []*kv.Op) []*kv.Op {
	for i, op := range ops {
		if op.Kind.IsCompare() {
			out := append(make([]*kv.Op, 0, len(ops)-1), ops[:i]...)
			for _, op := range ops[i+1:] {
				if !op.Kind.IsCompare() {
					out = append(out, op)
				}
			}
			return out
		}
	}
	return ops
}

// takePrepared removes txid's record from the prepared-transaction
// table and returns it. A nil record means the transaction cannot be
// committed, with err saying why: nil for a duplicate decision that
// already committed (ack it again, after its record's durability wait
// — dup carries the recorded outcome), ErrConflict for one that
// already aborted, ErrBadRequest for a transaction this store never
// heard of, or one whose prepare has not voted (that prepare goes on).
func (s *Store) takePrepared(txid uint64) (*txRecord, decision, error) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	rec := s.txs[txid]
	if rec == nil {
		d, decided := s.decided[txid]
		switch {
		case decided && d.commit:
			return nil, d, nil // duplicate decision: already committed
		case decided:
			return nil, d, fmt.Errorf("%w: tx %d already aborted", kv.ErrConflict, txid)
		}
		return nil, decision{}, fmt.Errorf("%w: commit of unknown tx %d", kv.ErrBadRequest, txid)
	}
	if !rec.replicated {
		return nil, decision{}, fmt.Errorf("%w: commit of tx %d before its prepare voted", kv.ErrBadRequest, txid)
	}
	delete(s.txs, txid)
	return rec, decision{}, nil
}

// recordDecision remembers a transaction's outcome for decidedTTL (and
// at most decidedMax entries), so retried phase-two requests are
// answered instead of rejected.
func (s *Store) recordDecision(txid uint64, d decision) {
	now := time.Now()
	s.txMu.Lock()
	s.decided[txid] = d
	s.decidedQ = append(s.decidedQ, decidedEntry{txid: txid, at: now})
	s.evictDecidedLocked(now)
	s.txMu.Unlock()
}

// evictDecidedLocked drops decided entries past their TTL, and the
// oldest entries beyond the size cap. Caller holds txMu.
func (s *Store) evictDecidedLocked(now time.Time) {
	ttl := decidedTTL
	for len(s.decidedQ) > 0 {
		head := s.decidedQ[0]
		if now.Sub(head.at) < ttl && len(s.decided) <= decidedMax {
			break
		}
		delete(s.decided, head.txid)
		s.decidedQ = s.decidedQ[1:]
	}
}

// SweepDecided evicts expired decided-transaction entries; the server
// runs it periodically, tests call it directly.
func (s *Store) SweepDecided() {
	s.txMu.Lock()
	s.evictDecidedLocked(time.Now())
	s.txMu.Unlock()
}

// Decided reports whether txid's outcome is in the decided table, and
// whether it committed (tests and diagnostics).
func (s *Store) Decided(txid uint64) (known, committed bool) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	d, ok := s.decided[txid]
	return ok, d.commit
}

// Abort releases a prepared transaction's locks without applying, and
// records the abort decision. Aborting an unknown transaction is a
// no-op (idempotent, so the coordinator can abort blindly after a
// partial prepare).
func (s *Store) Abort(txid uint64) {
	s.abort(txid, false)
}

func (s *Store) abort(txid uint64, orphan bool) {
	s.repMu.Lock()
	s.txMu.Lock()
	rec := s.txs[txid]
	delete(s.txs, txid)
	s.txMu.Unlock()
	if rec == nil {
		s.repMu.Unlock()
		return
	}
	// A replicated prepare owes the stream its decision: the backup (and
	// the write-ahead log) must release the staged locks too. The abort
	// never waits on the durability watermark — locks must come free even
	// when the backup is unreachable; a missed record surfaces as a loud
	// sequence gap on the backup's next batch. It only writes its record
	// to the log once repMu is released. A prepare still taking its locks
	// releases what it took after this (prepare).
	var to uint64
	if rec.replicated {
		to = s.emitLocked(kv.ReplRecord{Kind: kv.RecDecide, TxID: txid, Commit: false}) + 1
	}
	s.decideLocked(txid, rec.oids, decision{})
	s.stats.Aborts.Add(1)
	if orphan {
		s.stats.OrphanAborts.Add(1)
	}
	s.maybeCheckpointLocked()
	s.repMu.Unlock()
	s.writeWAL(to, true)
}

// SweepOrphans aborts prepares whose decision never arrived, subject
// to the epoch discipline: a prepare may be TTL-aborted only when
// the epoch under which it was accepted is provably superseded (the
// group moved on — a failover or re-formation happened, and a TTL,
// counted from the later of the prepare and the bump, has since given
// the coordinator a full window to redirect its decision to this
// member). A prepare whose epoch is still current is NEVER
// unilaterally aborted: its coordinator may be slow, partitioned, or
// mid-drive on a decided commit, and aborting against a decided commit
// breaks atomicity. Within a stable epoch, 2PC
// blocks, safely; an operator can force an epoch bump to reap a
// provably dead coordinator's locks.
//
// A transaction with a recorded decision is never swept (it left the
// prepared table when the decision was applied). The server runs this
// periodically; tests call it directly. It returns how many prepares
// were aborted.
func (s *Store) SweepOrphans() int {
	now := time.Now()
	v := s.view.Load()
	var victims []uint64
	s.txMu.Lock()
	for txid, rec := range s.txs {
		// A prepare whose epoch is still current blocks, never aborts.
		if rec.epoch < v.epoch && now.Sub(rec.preparedAt) >= prepareTTL && now.Sub(v.since) >= prepareTTL {
			victims = append(victims, txid)
		}
	}
	s.txMu.Unlock()
	for _, txid := range victims {
		s.abort(txid, true)
	}
	return len(victims)
}

func (s *Store) releaseLocks(txid uint64, oids []kv.OID) {
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		if obj := sh.objs[oid]; obj != nil && obj.lock != nil && obj.lock.txid == txid {
			sh.unlockLocked(oid, obj)
		}
		sh.mu.Unlock()
	}
}

// FastCommit executes a single-participant transaction in one step: it
// takes its locks as Prepare does (compares included) and commits at the
// proposed timestamp, which it returns. It enters neither the prepared
// nor the decided table: nothing but itself resolves it, and its client
// never re-sends it. It rides in one RecCommit record and counts toward
// FastCommits alone, neither Prepares nor Commits.
func (s *Store) FastCommit(txid uint64, start clock.Timestamp, ops []*kv.Op) (clock.Timestamp, error) {
	commitTS, _, err := s.fastCommit(txid, start, ops)
	return commitTS, err
}

// fastCommit is FastCommit, with the cell counts its reply reports
// (kv.FastCommitResp.Cells).
func (s *Store) fastCommit(txid uint64, start clock.Timestamp, ops []*kv.Op) (clock.Timestamp, []uint64, error) {
	oids, byOID := groupOps(ops)
	locks, commitTS, cells, err := s.lockOps(txid, start, ops, oids, byOID)
	if err != nil {
		return 0, nil, err
	}
	out := kv.ReplRecord{Kind: kv.RecCommit, TxID: txid, TS: commitTS}
	for _, lock := range locks {
		out.Ops = append(out.Ops, lock.writes...)
	}
	if len(out.Ops) > 0 {
		// Emitting the record and installing its writes are one repMu
		// section, as in commit; the durability wait follows outside it.
		s.repMu.Lock()
		for _, lock := range locks {
			select {
			case <-lock.done:
				// Only a snapshot install releases another's lock: this
				// store was deposed and rebuilt while the locks were taken.
				// Nothing is emitted; the transaction did not commit.
				s.repMu.Unlock()
				return 0, nil, fmt.Errorf("%w: tx %d lost its locks to a snapshot install", kv.ErrConflict, txid)
			default:
			}
		}
		seq := s.emitLocked(out)
		s.applyStaged(txid, oids, commitTS)
		s.maybeCheckpointLocked()
		s.repMu.Unlock()
		if err := s.waitReplicated(seq); err != nil {
			// Applied here and in the local stream, but not acknowledged
			// by the sinks: exactly what ErrUncertain names (see commit).
			return 0, nil, fmt.Errorf("%w: replicating commit: %v", kv.ErrUncertain, err)
		}
	} else {
		// It only compared objects here: it releases their locks and has
		// nothing to stream or to wait for.
		s.releaseLocks(txid, oids)
	}
	s.stats.FastCommits.Add(1)
	return commitTS, cells, nil
}

// IsLocked reports whether oid currently carries a lock (tests).
func (s *Store) IsLocked(oid kv.OID) bool {
	sh := s.shardFor(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objs[oid]
	return obj != nil && obj.lock != nil
}
