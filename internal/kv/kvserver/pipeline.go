package kvserver

// Group-commit replication pipeline, generalized to quorum groups.
// Record EMISSION (under repMu: sequence assignment, epoch stamp,
// replication-log append, applying the record's effects) is decoupled
// from the DURABILITY WAIT: emission enqueues the record here, and the
// pipeline coalesces whatever accumulated into batched MirrorBatchReq
// RPCs (one round trip, one lease extension, one backup-side
// contiguous apply per batch) and one batched WAL append (one buffer,
// one file write, one fsync). Committers block on the DURABILITY
// WATERMARK before acknowledging the client.
//
// Each backup member has its own send queue and its own sender
// goroutine (a slow or dead member must not stall the others'
// batches), and the watermark follows the QUORUM rule: a record is
// replication-durable once at least need = (members+1)/2 members have
// acknowledged it — together with the primary's own copy, a majority
// of the group of members+1, so any majority that survives a failure
// intersects the ack set and the most-caught-up survivor holds every
// acknowledged record. For a pair (one member) need is 1.
//
// Failure semantics are watermark semantics. A batch that fails marks
// its member BROKEN: the member's queue is dropped and no further
// batches go to it (it rejoins only by a re-attach). Waiters are then
// judged by the surviving quorum: with
// enough live members they simply stop counting on the broken one;
// when live members fall below need the quorum is LOST and every
// waiter at or above the watermark fails with the member's error
// (uncertain — their records are in the primary's local stream, their
// effects visible, surviving a failover only if enough members applied
// them after all). Waiters never succeed on a record too few members
// applied: the only ack path is a quorum of per-member batch
// acknowledgments covering the record's sequence number (or an
// explicit operator detach, which removes the replication requirement
// itself and fails — not acks — the waiters already in flight).
//
// The sender is also the only way records reach a backup, the way
// Raft's AppendEntries consistency check works: a batch says where it
// starts, and the backup applies it only at its own stream head.
// Otherwise the backup answers with its head (kv.StreamGapError) and the
// sender resends from there out of the retained log. A new member's
// first batch — the probe — starts at the primary's head at attach time
// and goes even empty, so a member attached mid-life catches up through
// its own queue, and its acks — which start at the head its backup
// reported — count only records it holds. Until it has acknowledged that
// head the member is a LEARNER (the Raft dissertation's non-voting
// member, §4.2.1): it is left out of need, the watermark and quorum
// loss, so a slow or refused catch-up neither stalls nor fails the
// commits running beside it. It votes from its join on.
//
// The sender is the primary's only channel to a backup for the lease
// too: a batch the backup accepted is that member's lease grant,
// measured from before it was sent. A member sent nothing for a third of
// Config.LeaseDuration is sent an empty batch — the heartbeat, Raft's
// AppendEntries with no entries — so an idle primary keeps its grants
// and a loaded one sends no heartbeats. A broken member grants nothing
// more: the primary serves only while a majority of its group accepts
// its stream, and a refusal carrying a newer configuration deposes it.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"yesquel/internal/kv"
)

// mirrorBatchBytes caps one mirror batch's estimated payload,
// comfortably under the wire frame limit regardless of record count.
const mirrorBatchBytes = 4 << 20

// mirrorBatchMaxRecords caps how many stream records one mirror batch
// carries. Larger batches amortize the round trip further at the cost
// of per-batch latency under bursts.
const mirrorBatchMaxRecords = 256

// replWaitTimeout bounds a durability wait. The worst legitimate case
// is a record emitted just after a batch departed toward a slow (but
// within-timeout) member: it waits out that in-flight round trip, a
// coalescing interval, and its own batch's round trip — so the bound
// must exceed two mirror timeouts plus the maximum interval, or a
// healthy-but-slow member would fail every commit spuriously. A
// waiter whose record is never covered by a quorum of acks fails
// loudly at this bound instead of wedging the client forever.
const replWaitTimeout = 2*mirrorTimeout + maxGroupCommitInterval + 2*time.Second

// pipeWaiter is one durability wait: ch receives nil once seq is
// durable, or the error that made it impossible.
type pipeWaiter struct {
	seq uint64
	ch  chan error
}

// mirrorMember is one attached replication member: its own send queue
// (drained by its own goroutine, so a dead member's timeout never
// stalls a healthy one's batches), its ack watermark, and its failure
// state. All fields except id/send/stopCh/wake are guarded by pipe.mu;
// send runs outside the lock.
type mirrorMember struct {
	id   string
	send func(*kv.MirrorBatchReq) error
	// queue holds the records awaiting this member's next batch; next is
	// the stream position of queue[0] (of the next record emitted, when
	// the queue is empty).
	queue []kv.ReplRecord
	next  uint64
	// acked: the member's backup holds every record with seq < acked.
	// It is set only from the backup's replies: a batch's ack, or the
	// head a gap reply reported.
	acked uint64
	// joined receives the outcome of the attach — nil once acked reaches
	// joinAt, the stream head at attach time, or the error that broke
	// the member — and is nil once answered.
	joined chan error
	joinAt uint64
	// learner: the join has not succeeded yet, and the member does not
	// count toward the quorum (see recomputeQuorumLocked).
	learner bool
	// broken: a batch to this member failed; its queue was dropped and
	// its sender goroutine exited. It rejoins only by re-attach; its past
	// acks still count — the records ARE on it.
	broken bool
	err    error

	stopCh chan struct{}
	wake   chan struct{}
}

// replPipe is the per-store pipeline state. Lock order: repMu before
// pipe.mu before wal.mu; pipe.mu is never held across network or disk
// I/O except by the checkpoint drain, which holds repMu anyway.
type replPipe struct {
	mu sync.Mutex
	// walDone signals walFlushing transitions (checkpoint drains wait
	// for the in-flight WAL write so rotation cannot strand records).
	walDone *sync.Cond

	// members are the attached replication members, in attach order.
	members []*mirrorMember
	// need is how many member acks complete a majority of the group
	// (voting members plus the primary itself): (voters+1)/2.
	need int

	// walQ holds records awaiting the batched write-ahead-log append.
	walQ []kv.ReplRecord
	// walQEnd is the sequence number after walQ's last record.
	walQEnd uint64

	// Watermarks: a quorum of member acks covers seq < mirrored
	// (monotone — membership changes never move it backwards), the WAL
	// covers seq < synced (fsynced when LogSync). durableLocked
	// combines them.
	mirrored uint64
	synced   uint64

	// needWAL: the store has a write-ahead log, waiters require the
	// synced watermark — which advances only once a batch is WRITTEN to
	// the file (and fsynced, when LogSync is set). The other sink is the
	// member set: see hasMembersLocked.
	needWAL bool

	// quorumErr is set while fewer than need members are live: no
	// record at or above quorumFrom can ever gather a quorum, so its
	// waiters (present and future) fail immediately with this error
	// instead of timing out. Cleared when an attach or detach restores
	// live >= need.
	quorumErr  error
	quorumFrom uint64

	waiters []pipeWaiter

	// failRanges records sequence windows whose replication can never
	// complete — records emitted under a mirror that was detached or
	// replaced before a quorum acknowledged them. A waiter for such a
	// record must FAIL (uncertain) even if it registers after the
	// detach already ran: the detach empties the member set, so without
	// this record the late waiter would see "no mirror required" and ack a
	// record too few members applied. Bounded: one entry per
	// detach/replace event, oldest dropped past failRangesMax (by then
	// every possible waiter has long timed out).
	failRanges []failRange

	// wal mirrors s.wal for the flusher: s.wal is written under repMu
	// (OpenStore, snapshot-install failure), which the flusher never
	// holds, so it reads this copy under pipe.mu instead.
	wal *wal

	// streamEpoch mirrors s.streamEpoch for the member senders, which
	// stamp it on every batch (kv.MirrorBatchReq.Epoch). It is the
	// STREAM epoch, not the adopted one: a deposed primary that adopted
	// its successor's epoch from a rejection still sends its old one, so
	// a member rejoining the successor refuses its straggler batches.
	streamEpoch uint64

	// walFlushing marks an in-flight batched WAL write (the flusher
	// holds it across appendBatch only).
	walFlushing bool

	// flushMu serializes whole WAL flush passes (batch grab + I/O +
	// watermark update): a stop/start race can briefly leave an old
	// flusher goroutine finishing its drain while the new one starts.
	flushMu sync.Mutex

	// stopCh is non-nil while the WAL flusher goroutine runs.
	stopCh chan struct{}
	wake   chan struct{}
}

func (s *Store) initPipe() {
	s.pipe.walDone = sync.NewCond(&s.pipe.mu)
	s.pipe.wake = make(chan struct{}, 1)
}

// failRange is one permanently unackable window of the stream (see
// replPipe.failRanges).
type failRange struct {
	from, to uint64
	err      error
}

const failRangesMax = 32

// failureFor returns the permanent failure covering seq, if any.
// Caller holds pipe.mu.
func (p *replPipe) failureFor(seq uint64) error {
	for i := range p.failRanges {
		if seq >= p.failRanges[i].from && seq < p.failRanges[i].to {
			return p.failRanges[i].err
		}
	}
	if p.quorumErr != nil && seq >= p.quorumFrom {
		return p.quorumErr
	}
	return nil
}

// hasMembersLocked is the one statement of "this store has a backup":
// with at least one voting member attached, waiters require the quorum
// watermark. Caller holds pipe.mu.
func (p *replPipe) hasMembersLocked() bool {
	for _, m := range p.members {
		if !m.learner {
			return true
		}
	}
	return false
}

// durableLocked reports whether the record at seq satisfies every
// durability requirement currently in force. Caller holds pipe.mu.
func (p *replPipe) durableLocked(seq uint64) bool {
	if p.hasMembersLocked() && seq >= p.mirrored {
		return false
	}
	if p.needWAL && seq >= p.synced {
		return false
	}
	return true
}

// recomputeQuorumLocked refreshes need, advances the quorum watermark
// to the need-th largest voting member's ack (never backwards), and
// maintains the quorum-lost state: with fewer live (non-broken) voters
// than need, no new record can ever gather a quorum, so waiters at or
// above the watermark must fail now rather than time out. Broken
// members' PAST acks still count — the records are on them. Learners
// count for nothing. Caller holds pipe.mu.
func (p *replPipe) recomputeQuorumLocked() {
	voters := 0
	for _, m := range p.members {
		if !m.learner {
			voters++
		}
	}
	if voters == 0 {
		p.need = 0
		p.quorumErr = nil
		return
	}
	p.need = (voters + 1) / 2
	live := 0
	var memberErr error
	for _, m := range p.members {
		if m.learner {
			continue
		}
		if m.broken {
			memberErr = m.err
		} else {
			live++
		}
		// The need-th largest ack is the largest one that need voters
		// have reached. This runs on every member ack and a group has a
		// handful of members, so count in place rather than sort a copy.
		reached := 0
		for _, o := range p.members {
			if !o.learner && o.acked >= m.acked {
				reached++
			}
		}
		if reached >= p.need && m.acked > p.mirrored {
			p.mirrored = m.acked
		}
	}
	if live < p.need {
		if p.quorumErr == nil {
			if memberErr == nil {
				memberErr = fmt.Errorf("kvserver: replication member unavailable")
			}
			p.quorumErr = fmt.Errorf("kvserver: replication quorum lost (%d of %d members live, need %d): %w", live, voters, p.need, memberErr)
			p.quorumFrom = p.mirrored
		}
	} else {
		p.quorumErr = nil
	}
}

// enqueueLocked hands one emitted record to the pipeline. Caller holds
// repMu (emission order is queue order is stream order).
func (s *Store) enqueueLocked(seq uint64, rec kv.ReplRecord) {
	p := &s.pipe
	p.mu.Lock()
	p.streamEpoch = s.streamEpoch
	for _, m := range p.members {
		if m.broken {
			continue
		}
		m.queue = append(m.queue, rec)
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	walQueued := false
	if s.wal != nil {
		p.walQ = append(p.walQ, rec)
		p.walQEnd = seq + 1
		walQueued = true
	}
	p.mu.Unlock()
	if walQueued {
		s.wakeFlusher()
	}
}

func (s *Store) wakeFlusher() {
	select {
	case s.pipe.wake <- struct{}{}:
	default:
	}
}

// waitReplicated blocks until the record at seq is durable under the
// store's configured guarantees — acknowledged by a quorum of attached
// members, and fsynced when LogSync — or returns the error that failed
// it. Callers must NOT hold repMu: the wait happening outside the
// stream lock is the whole point of group commit.
func (s *Store) waitReplicated(seq uint64) error {
	p := &s.pipe
	p.mu.Lock()
	if err := p.failureFor(seq); err != nil {
		p.mu.Unlock()
		return err
	}
	if p.durableLocked(seq) {
		p.mu.Unlock()
		return nil
	}
	w := pipeWaiter{seq: seq, ch: make(chan error, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
	t := time.NewTimer(replWaitTimeout)
	defer t.Stop()
	select {
	case err := <-w.ch:
		return err
	case <-t.C:
		p.mu.Lock()
		for i := range p.waiters {
			if p.waiters[i].ch == w.ch {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
		// The waiter may have been completed between the timeout and
		// the removal; prefer that result.
		select {
		case err := <-w.ch:
			return err
		default:
		}
		return fmt.Errorf("kvserver: timed out awaiting replication of seq %d", seq)
	}
}

// completeWaitersLocked answers every waiter that is now durable, and
// fails those covered by a permanent failure (a detach window or a
// lost quorum). Caller holds pipe.mu.
//
//yesqlint:allow repmublock -- each waiter channel is buffered (cap 1) and receives exactly one completion; the send cannot block
func (p *replPipe) completeWaitersLocked() {
	keep := p.waiters[:0]
	for _, w := range p.waiters {
		switch {
		case p.failureFor(w.seq) != nil:
			w.ch <- p.failureFor(w.seq)
		case p.durableLocked(w.seq):
			w.ch <- nil
		default:
			keep = append(keep, w)
		}
	}
	// Zero the tail so completed waiters' channels are collectable.
	for i := len(keep); i < len(p.waiters); i++ {
		p.waiters[i] = pipeWaiter{}
	}
	p.waiters = keep
}

// AttachMirrorMember adds (or replaces) the replication member id and
// returns a channel that receives nil once the member has acknowledged
// every record emitted before the attach, or the error that broke it.
// The member's first batch is the probe at the stream head. It joins as
// a learner and votes — its acks count toward the quorum watermark, and
// need is recomputed with it — once that channel receives nil.
func (s *Store) AttachMirrorMember(id string, send func(*kv.MirrorBatchReq) error) <-chan error {
	joined, wake := make(chan error, 1), make(chan struct{}, 1)
	s.repMu.Lock()
	defer s.repMu.Unlock()
	p := &s.pipe
	p.mu.Lock()
	for i, m := range p.members {
		if m.id != id {
			continue
		}
		if !m.broken && !m.learner {
			// Replacing a live voter: records still awaiting the OLD
			// incarnation's ack must fail (uncertain), not be silently
			// re-homed onto the new one.
			p.failMirrorWindowLocked(s.repSeq, fmt.Errorf("kvserver: mirror member %s replaced while awaiting replication", id))
		}
		m.stopLocked()
		p.members = append(p.members[:i], p.members[i+1:]...)
		break
	}
	m := &mirrorMember{
		id:      id,
		send:    send,
		next:    s.repSeq,
		joined:  joined,
		joinAt:  s.repSeq,
		learner: true,
		stopCh:  make(chan struct{}),
		wake:    wake,
	}
	p.streamEpoch = s.streamEpoch
	p.members = append(p.members, m)
	p.recomputeQuorumLocked()
	p.completeWaitersLocked()
	p.mu.Unlock()
	go s.memberLoop(m)
	return joined
}

// DetachMirrorMember removes the replication member id: its sender
// stops and its queued records are dropped. Detaching the LAST voting
// member removes the replication requirement itself — waiters still
// awaiting a quorum FAIL (a detach must never ack a record too few
// members applied), and records emitted from here on simply no longer
// require acks. Detaching one of several voters re-judges waiters
// against the smaller group's quorum; detaching a learner changes no
// waiter's fate.
func (s *Store) DetachMirrorMember(id string) {
	s.detachMembers(func(m *mirrorMember) bool { return m.id == id })
}

// DetachAllMirrorMembers stops and removes every member, failing —
// not acking — the waiters still awaiting a quorum.
func (s *Store) DetachAllMirrorMembers() {
	s.detachMembers(func(*mirrorMember) bool { return true })
}

// detachMembers stops and removes the members detach selects, then
// re-judges the waiters: against the smaller group's quorum, or — when
// the last voter just left — by failing the unacknowledged window.
func (s *Store) detachMembers(detach func(*mirrorMember) bool) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	had := p.hasMembersLocked()
	var keep []*mirrorMember
	for _, m := range p.members {
		if detach(m) {
			m.stopLocked()
		} else {
			keep = append(keep, m)
		}
	}
	p.members = keep
	if had && !p.hasMembersLocked() {
		p.failMirrorWindowLocked(s.repSeq, fmt.Errorf("kvserver: mirror detached while awaiting replication"))
	}
	p.recomputeQuorumLocked()
	p.completeWaitersLocked()
}

// ReplicaStatus is one attached replication member's progress, for
// stats: how far its acks reach, and whether it is broken (a batch
// failed; it needs a re-attach). Lag is Head - AckedSeq at
// snapshot time.
type ReplicaStatus struct {
	Member   string
	AckedSeq uint64
	Broken   bool
}

// ReplicationStatus reports the stream head, the quorum durability
// watermark, the required member-ack count, and each attached member's
// progress — what makes a permanently-behind minority member
// observable instead of silent.
func (s *Store) ReplicationStatus() (head, watermark uint64, need int, members []ReplicaStatus) {
	s.repMu.Lock()
	head = s.repSeq
	p := &s.pipe
	p.mu.Lock()
	watermark = p.mirrored
	need = p.need
	members = make([]ReplicaStatus, len(p.members))
	for i, m := range p.members {
		members[i] = ReplicaStatus{Member: m.id, AckedSeq: m.acked, Broken: m.broken}
	}
	p.mu.Unlock()
	s.repMu.Unlock()
	return head, watermark, need, members
}

// failMirrorWindowLocked permanently fails the unacknowledged window
// [mirrored, head): registered waiters in it get err now, and the
// window is recorded so a waiter registering later (its committer had
// released repMu but not yet called waitReplicated when the mirror
// went away) fails identically instead of slipping past an emptied
// member set. Caller holds pipe.mu.
//
//yesqlint:allow repmublock -- each waiter channel is buffered (cap 1) and receives exactly one completion; the send cannot block
func (p *replPipe) failMirrorWindowLocked(head uint64, err error) {
	if head > p.mirrored {
		p.failRanges = append(p.failRanges, failRange{from: p.mirrored, to: head, err: err})
		if len(p.failRanges) > failRangesMax {
			p.failRanges = append(p.failRanges[:0], p.failRanges[len(p.failRanges)-failRangesMax:]...)
		}
	}
	keep := p.waiters[:0]
	for _, w := range p.waiters {
		if w.seq >= p.mirrored {
			w.ch <- err
			continue
		}
		keep = append(keep, w)
	}
	for i := len(keep); i < len(p.waiters); i++ {
		p.waiters[i] = pipeWaiter{}
	}
	p.waiters = keep
}

// memberLoop is one member's sender goroutine: woken by emissions, it
// drains the member's queue in batches until empty, then sleeps. With
// a configured GroupCommitInterval it waits that long after the first
// wake to let a batch build; at the default (0) it flushes as soon as
// it is free — a lone writer pays no added latency, while concurrent
// writers naturally coalesce into whatever accumulated during the
// previous batch's round trip. A member idle for a heartbeat period is
// sent an empty batch; the first one, the probe, goes at once. An
// accepted batch extends the member's lease grant. A gap reply turns
// the queue into the retained records from the backup's head
// (resendFrom); any other failure breaks the member and ends the loop,
// and a wrong-epoch refusal first adopts the configuration it carries.
func (s *Store) memberLoop(m *mirrorMember) {
	p := &s.pipe
	heartbeat := max(s.cfg.LeaseDuration/3, time.Millisecond)
	idle := time.NewTimer(0)
	defer idle.Stop()
	// One reusable batching timer for the loop's lifetime; allocated on
	// the first wake that needs it, Reset on every later one.
	var batchTimer *time.Timer
	defer func() {
		if batchTimer != nil {
			batchTimer.Stop()
		}
	}()
	for {
		beat := false
		select {
		case <-m.stopCh:
			return
		case <-m.wake:
		case <-idle.C:
			beat = true
		}
		if d := s.cfg.GroupCommitInterval; d > 0 {
			if batchTimer == nil {
				batchTimer = time.NewTimer(d)
			} else {
				batchTimer.Reset(d)
			}
			select {
			case <-m.stopCh:
				return
			case <-batchTimer.C:
			}
		}
		for {
			p.mu.Lock()
			req := m.takeBatchLocked(p.streamEpoch, beat)
			p.mu.Unlock()
			if req == nil {
				break
			}
			beat = false
			sentAt := time.Now()
			err := m.send(req)
			var gap *kv.StreamGapError
			var we *kv.WrongEpochError
			switch {
			case err == nil:
				s.extendLease(m.id, sentAt.Add(s.cfg.LeaseDuration))
			case errors.As(err, &gap):
				err = s.resendFrom(m, gap)
			case errors.As(err, &we):
				s.AdoptEpoch(we.Epoch, we.Members)
			}
			p.mu.Lock()
			if err != nil {
				m.broken = true
				m.err = err
				m.queue = nil
				m.answerJoinLocked(err)
				p.recomputeQuorumLocked()
				p.completeWaitersLocked()
				p.mu.Unlock()
				return
			}
			if gap == nil {
				m.acked = req.From + uint64(len(req.Recs))
				if len(req.Recs) > 0 {
					s.stats.MirrorBatches.Add(1)
					s.stats.MirrorBatchRecords.Add(uint64(len(req.Recs)))
				}
			}
			if m.learner && m.acked >= m.joinAt {
				m.learner = false
				m.answerJoinLocked(nil)
			}
			p.recomputeQuorumLocked()
			p.completeWaitersLocked()
			p.mu.Unlock()
			select {
			case <-m.stopCh:
				return
			default:
			}
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(heartbeat)
	}
}

// answerJoinLocked delivers the attach's outcome, once. Caller holds
// pipe.mu.
//
//yesqlint:allow repmublock -- joined is buffered (cap 1) and receives exactly one answer; the send cannot block
func (m *mirrorMember) answerJoinLocked(err error) {
	if m.joined != nil {
		m.joined <- err
		m.joined = nil
	}
}

// stopLocked ends the member's sender and fails an attach still
// waiting on it. Caller holds pipe.mu.
func (m *mirrorMember) stopLocked() {
	close(m.stopCh)
	m.answerJoinLocked(errors.New("kvserver: mirror member detached"))
}

// resendFrom answers a backup's gap reply. Under repMu, so the stream
// cannot move, the member's queue becomes the retained records from the
// backup's head on, and its ack mark that head. A backup past this
// stream's head, or whose record below its head is not the one this
// stream holds there, holds records this stream never had
// (kv.ErrDiverged); one below the retained log lacks records that are
// gone (ErrBehindLog). Either rejoins by state transfer, and the error
// breaks the member.
func (s *Store) resendFrom(m *mirrorMember, gap *kv.StreamGapError) error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	head := gap.Head
	switch {
	case head > s.repSeq:
		return fmt.Errorf("%w: backup %s is at seq %d, past this stream's head %d: it applied records never in this stream, rejoin by state transfer", kv.ErrDiverged, m.id, head, s.repSeq)
	case head < s.logBase:
		return fmt.Errorf("%w: backup %s is at seq %d, the log is retained from %d", ErrBehindLog, m.id, head, s.logBase)
	case head > s.logBase:
		// The record below the head is retained. Its stamp is the epoch
		// this stream had in force there (a RecEpoch's stamp is the epoch
		// it installed, equally the epoch in force after it), and the
		// backup's checksum of its own record there, when it still holds
		// it, tells two records of one epoch apart.
		have := &s.commitLog[head-1-s.logBase]
		if have.Epoch != gap.StreamEpoch || gap.Last != 0 && recordChecksum(have) != gap.Last {
			return fmt.Errorf("%w: backup %s's record at seq %d (stream epoch %d) is not the one this stream holds there (epoch %d): the histories diverged, rejoin by state transfer", kv.ErrDiverged, m.id, head-1, gap.StreamEpoch, have.Epoch)
		}
	}
	p := &s.pipe
	p.mu.Lock()
	m.queue = append([]kv.ReplRecord(nil), s.commitLog[head-s.logBase:]...)
	m.next = head
	m.acked = head
	p.mu.Unlock()
	return nil
}

// ErrBehindLog reports a backup whose stream head is below the
// primary's retained log: the records it lacks were truncated, so it
// rejoins by state transfer (Server.StateTransferFrom).
var ErrBehindLog = errors.New("kvserver: backup is behind the retained log")

// takeBatchLocked slices the member's next batch off its queue,
// bounded by mirrorBatchMaxRecords and mirrorBatchBytes (at least one
// record always goes — it crossed the wire once already, so it fits a
// frame). It returns nil when there is nothing to send, unless beat asks for the
// batch even empty (the probe or a heartbeat). Caller holds pipe.mu.
func (m *mirrorMember) takeBatchLocked(epoch uint64, beat bool) *kv.MirrorBatchReq {
	if len(m.queue) == 0 && !beat {
		return nil
	}
	maxRecs := min(len(m.queue), mirrorBatchMaxRecords)
	n, bytes := 0, 0
	for n < maxRecs {
		sz := recordSize(&m.queue[n])
		if n > 0 && bytes+sz > mirrorBatchBytes {
			break
		}
		bytes += sz
		n++
	}
	req := &kv.MirrorBatchReq{From: m.next, Epoch: epoch, Recs: m.queue[:n:n]}
	m.next += uint64(n)
	m.queue = m.queue[n:]
	if len(m.queue) == 0 {
		m.queue = nil
	}
	return req
}

// startFlusherLocked starts the WAL flusher goroutine if it is not
// already running. Caller holds repMu (OpenStore and attach paths).
func (s *Store) startFlusherLocked() {
	p := &s.pipe
	p.mu.Lock()
	if p.stopCh == nil {
		p.stopCh = make(chan struct{})
		go s.flushLoop(p.stopCh)
	}
	p.mu.Unlock()
}

func (s *Store) stopFlusher() {
	p := &s.pipe
	p.mu.Lock()
	stop := p.stopCh
	p.stopCh = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// flushLoop is the write-ahead log's batcher: woken by emissions, it
// drains the WAL queue in batched appends until empty, then sleeps.
// With a configured GroupCommitInterval it waits that long after the
// first wake to let a batch build. (Mirror batches have per-member
// sender goroutines; see memberLoop.)
func (s *Store) flushLoop(stopCh chan struct{}) {
	// One reusable batching timer for the loop's lifetime; allocated on
	// the first wake that needs it, Reset on every later one.
	var batchTimer *time.Timer
	defer func() {
		if batchTimer != nil {
			batchTimer.Stop()
		}
	}()
	for {
		select {
		case <-stopCh:
			return
		case <-s.pipe.wake:
		}
		if d := s.cfg.GroupCommitInterval; d > 0 {
			if batchTimer == nil {
				batchTimer = time.NewTimer(d)
			} else {
				batchTimer.Reset(d)
			}
			select {
			case <-stopCh:
				return
			case <-batchTimer.C:
			}
		}
		for s.flushOnce() {
			select {
			case <-stopCh:
				return
			default:
			}
		}
	}
}

// flushOnce performs one batched WAL append, then advances the synced
// watermark and completes waiters. It reports whether it did any work.
func (s *Store) flushOnce() bool {
	p := &s.pipe
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	walRecs := p.walQ
	walTo := p.walQEnd
	p.walQ = nil
	w := p.wal
	if len(walRecs) > 0 {
		p.walFlushing = true
	}
	p.mu.Unlock()
	if len(walRecs) == 0 {
		return false
	}

	walSynced, walErr := walAppendBatch(w, walRecs)

	p.mu.Lock()
	p.walFlushing = false
	p.walDone.Broadcast()
	if walErr == nil {
		if walTo > p.synced {
			p.synced = walTo
		}
		if walSynced {
			s.stats.WALSyncs.Add(1)
		}
	} else {
		// Re-queue the failed batch AT THE FRONT: the records must
		// reach the file in stream order with no gap (the wal's
		// torn-tail repair assumes the retry starts exactly where
		// the clean prefix ends), so they go out again before
		// anything emitted since. Their waiters keep waiting — the
		// retry may well succeed (transient disk error) and ack
		// them; if the disk stays broken they time out as
		// uncertain. A delayed self-wake drives the retry even if
		// no new emission comes.
		s.stats.WALFailures.Add(1)
		p.walQ = append(walRecs, p.walQ...)
		time.AfterFunc(walRetryDelay, s.wakeFlusher)
	}
	p.completeWaitersLocked()
	p.mu.Unlock()
	return true
}

// walRetryDelay paces retries of a failed batched WAL append, so a
// persistently broken disk does not spin the flusher.
const walRetryDelay = 100 * time.Millisecond

// walAppendBatch writes recs to the WAL in one batched append and
// reports whether the append ended in an fsync. The wal pointer is the
// caller's snapshot (pipe.wal under pipe.mu, or s.wal under repMu) —
// the flusher must not read s.wal directly, which is written under
// repMu.
func walAppendBatch(w *wal, recs []kv.ReplRecord) (synced bool, err error) {
	if w == nil {
		return false, nil
	}
	return w.appendBatch(recs)
}

// discardWALLocked waits out any in-flight batched append and drops
// the queued records without writing them — used when a snapshot
// install supersedes them (the snapshot covers their effects, and the
// log file is about to be replaced wholesale). Caller holds repMu.
//
//yesqlint:allow repmublock -- deliberate bounded wait under repMu: at most one in-flight file write + fsync, never a network call
func (s *Store) discardWALLocked() {
	if s.wal == nil {
		return
	}
	p := &s.pipe
	p.mu.Lock()
	for p.walFlushing {
		p.walDone.Wait()
	}
	p.walQ = nil
	p.mu.Unlock()
}

// drainWALLocked forces every queued WAL record into the file before a
// checkpoint rotation: a record left in the queue across the rotation
// would be appended AFTER a snapshot that already covers it and
// double-apply on replay. It waits out any in-flight batched append
// (bounded: one file write + fsync, never a network call), then writes
// the remainder itself. Caller holds repMu, so no new records can be
// emitted while it runs. It reports whether the file now holds every
// queued record — false means the records were re-queued for the
// flusher's retry and the caller MUST NOT rotate (the still-queued
// records are below the would-be snapshot's coverage; teed into its
// tail by a later flush they would double-apply on replay).
//
//yesqlint:allow repmublock -- deliberate bounded wait under repMu: one file write + fsync, never a network call (the PR 5 checkpoint contract)
func (s *Store) drainWALLocked() bool {
	if s.wal == nil {
		return true
	}
	p := &s.pipe
	p.mu.Lock()
	for p.walFlushing {
		p.walDone.Wait()
	}
	recs := p.walQ
	to := p.walQEnd
	p.walQ = nil
	p.mu.Unlock()
	if len(recs) == 0 {
		return true
	}
	synced, err := walAppendBatch(s.wal, recs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		s.stats.WALFailures.Add(1)
		p.walQ = append(recs, p.walQ...)
		time.AfterFunc(walRetryDelay, s.wakeFlusher)
		return false
	}
	if to > p.synced {
		p.synced = to
	}
	if synced {
		s.stats.WALSyncs.Add(1)
	}
	p.completeWaitersLocked()
	return true
}
