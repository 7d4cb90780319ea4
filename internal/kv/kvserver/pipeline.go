package kvserver

// Group-commit replication pipeline. Record EMISSION (under repMu) is
// decoupled from the DURABILITY WAIT: emission hands the record to the
// sinks — the write-ahead log's flusher and each member's sender — which
// coalesce what accumulated into batched MirrorBatchReq RPCs (one round
// trip, one lease grant, one contiguous apply per batch) and one batched
// WAL append (one write, one fsync). Committers wait on the quorum and
// synced watermarks before acknowledging the client.
//
// Every decision of the primary's side is the core's (replcore.go). Each
// member has its own sender goroutine, so a dead member never stalls the
// others: it asks the core for its next action, carries it out — a send,
// a snapshot push, or a wait on one timer set to the core's next
// deadline — and feeds the outcome back. What stays here is I/O and
// ordering: captures under repMu, the divergence checks against
// commitLog, the sends, the waiters, and the lease's publication into
// the store's configuration view.

import (
	"errors"
	"fmt"
	"slices"
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

// mirrorMember is one member's sender: its core state, the send it
// carries batches out with, and its channels.
type mirrorMember struct {
	c      *coreMember
	send   func(*kv.MirrorBatchReq) error
	joined chan error // answers the attach
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

	core    replCore
	members []*mirrorMember // the core's members' senders

	// walQ holds records awaiting the batched write-ahead-log append.
	walQ []kv.ReplRecord
	// walQEnd is the sequence number after walQ's last record.
	walQEnd uint64
	// synced: the WAL covers seq < synced (fsynced when LogSync);
	// needWAL: the store has a write-ahead log, so waiters require it.
	synced  uint64
	needWAL bool

	waiters []pipeWaiter

	// wal mirrors s.wal for the flusher: s.wal is written under repMu
	// (OpenStore, snapshot-install failure), which the flusher never
	// holds, so it reads this copy under pipe.mu instead.
	wal *wal

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

	// senders counts the member senders still running: Server.Close
	// waits for the ones it detached.
	senders sync.WaitGroup
}

func (s *Store) initPipe() {
	s.pipe.walDone = sync.NewCond(&s.pipe.mu)
	s.pipe.wake = make(chan struct{}, 1)
	s.pipe.core = newReplCore(s.cfg.LeaseDuration)
}

// durableLocked reports whether the record at seq satisfies every
// durability requirement currently in force: a quorum of voters holds
// it (while any voter is attached), and the WAL does (while there is
// one). Caller holds pipe.mu.
func (p *replPipe) durableLocked(seq uint64) bool {
	return (p.core.need == 0 || seq < p.core.mirrored) && (!p.needWAL || seq < p.synced)
}

// enqueueLocked hands one emitted record to the pipeline. Caller holds
// repMu (emission order is queue order is stream order).
func (s *Store) enqueueLocked(seq uint64, rec kv.ReplRecord) {
	p := &s.pipe
	p.mu.Lock()
	p.core.emit(seq, rec)
	for _, m := range p.members {
		if !m.c.parked {
			select {
			case m.wake <- struct{}{}:
			default:
			}
		}
	}
	walQueued := s.wal != nil
	if walQueued {
		p.walQ = append(p.walQ, rec)
		p.walQEnd = seq + 1
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
	if err := p.core.failure(seq); err != nil || p.durableLocked(seq) {
		p.mu.Unlock()
		return err
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
		p.waiters = slices.DeleteFunc(p.waiters, func(o pipeWaiter) bool { return o.ch == w.ch })
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
// lost quorum). Caller holds pipe.mu. Each waiter's channel is
// buffered (cap 1) and receives exactly one completion, so the send
// cannot block.
func (p *replPipe) completeWaitersLocked() {
	p.waiters = slices.DeleteFunc(p.waiters, func(w pipeWaiter) bool {
		if err := p.core.failure(w.seq); err != nil {
			w.ch <- err
		} else if p.durableLocked(w.seq) {
			w.ch <- nil
		} else {
			return false
		}
		return true
	})
}

// carryOutLocked carries out the effects the core's last events
// returned: it answers joins, publishes the lease, and re-judges the
// waiters when the watermark moved or a window failed. Caller holds
// pipe.mu.
func (s *Store) carryOutLocked() {
	p := &s.pipe
	judge := false
	for _, e := range p.core.out {
		switch e.kind {
		case effComplete, effFail:
			judge = true
		case effJoin:
			for _, m := range p.members {
				if m.c == e.m {
					m.answerJoinLocked(e.err)
				}
			}
		case effLease:
			v := s.view.Load()
			if until, ok := p.core.leaseFor(v.epoch); ok {
				v.setLease(until)
			}
		}
	}
	clear(p.core.out)
	p.core.out = p.core.out[:0]
	if judge {
		p.completeWaitersLocked()
	}
}

// answerJoinLocked delivers the attach's outcome, which the core gives
// once. Caller holds pipe.mu. joined is buffered (cap 1) and receives
// exactly one answer, so the send cannot block.
func (m *mirrorMember) answerJoinLocked(err error) {
	m.joined <- err
}

// AttachMirrorMember adds the replication member id, which has no
// sender yet, and returns a channel that receives nil once the member
// has acknowledged every record emitted before the attach, or the error
// of its first failed send. The member's first batch is the probe at the
// stream head. The membership this store installed decides its vote: a
// member it lists is a voter from the start, and its sender retries it
// after a failure, as it retries any voter; one it does not list is a
// learner, whose first failed send ends its sender, and which votes once
// an install lists it.
func (s *Store) AttachMirrorMember(id string, send func(*kv.MirrorBatchReq) error) <-chan error {
	joined := make(chan error, 1)
	p := &s.pipe
	p.mu.Lock()
	c := p.core.attach(id)
	if c != nil {
		m := &mirrorMember{c: c, send: send, joined: joined, stopCh: make(chan struct{}), wake: make(chan struct{}, 1)}
		p.members = append(p.members, m)
		s.carryOutLocked()
		p.senders.Add(1)
		go s.memberLoop(m)
	}
	p.mu.Unlock()
	if c == nil {
		joined <- fmt.Errorf("kvserver: member %s already has a sender", id)
	}
	return joined
}

// DetachAllMirrorMembers stops and removes every member, failing —
// not acking — the waiters still awaiting a quorum. It is the shutdown
// path; a running group changes its members through InstallEpoch.
func (s *Store) DetachAllMirrorMembers() {
	s.detachMembers(func(string) bool { return true })
}

// detachMembers stops and removes the members drop selects: their
// senders stop and their queued records are dropped, and the waiters are
// re-judged (see replCore.detach).
func (s *Store) detachMembers(drop func(id string) bool) {
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	s.stopSendersLocked(p.core.detach(drop))
}

// stopSendersLocked carries out a detach of the members gone: their
// joins are answered, then their senders stopped. Caller holds pipe.mu.
func (s *Store) stopSendersLocked(gone []*coreMember) {
	s.carryOutLocked()
	s.pipe.members = slices.DeleteFunc(s.pipe.members, func(m *mirrorMember) bool {
		if slices.Contains(gone, m.c) {
			close(m.stopCh)
			return true
		}
		return false
	})
}

// ReplicaStatus is one attached replication member's progress, for
// stats: how far its acks reach, and whether it is broken (its last
// send failed and the sender is retrying it). Lag is Head - AckedSeq
// at snapshot time.
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
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.core.members {
		members = append(members, ReplicaStatus{Member: m.id, AckedSeq: m.acked, Broken: m.broken})
	}
	return p.core.head, p.core.mirrored, p.core.need, members
}

// memberProgress is how far the member id has come: its ack mark plus
// the snapshot chunks it has accepted (0 once it is detached).
func (s *Store) memberProgress(id string) uint64 {
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.core.members {
		if m.id == id {
			return m.acked + m.chunks
		}
	}
	return 0
}

// memberLoop is one member's sender goroutine. It ends when the core
// says so: on a detach, a refusal carrying a newer configuration
// (adopted first: a deposed sender can have nothing accepted again), or
// a learner's failed join. While the core has nothing for it, it sleeps
// until the core's next deadline (the heartbeat, or the end of a
// back-off) or an emission's wake; with a configured GroupCommitInterval
// it waits that long after a wake to let a batch build, and at the
// default (0) it sends as soon as it is free — a lone writer pays no
// added latency, while concurrent writers coalesce into whatever
// accumulated during the previous batch's round trip.
func (s *Store) memberLoop(m *mirrorMember) {
	defer s.pipe.senders.Done()
	p := &s.pipe
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		p.mu.Lock()
		act := p.core.tick(m.c, time.Now())
		p.mu.Unlock()
		switch act.kind {
		case actStop:
			return
		case actSend:
			s.sendBatch(m, &kv.MirrorBatchReq{From: act.from, Epoch: act.epoch, Recs: act.recs})
		case actPush:
			s.pushSnapshot(m)
		case actWait:
			woke, ok := sleep(timer, time.Until(act.until), m.stopCh, m.wake)
			if d := s.cfg.GroupCommitInterval; ok && woke && d > 0 {
				_, ok = sleep(timer, d, m.stopCh, nil)
			}
			if !ok {
				return
			}
		}
	}
}

// sleep waits d on t, or until wake fires; it reports whether wake
// fired, and false for ok once stop is closed.
func sleep(t *time.Timer, d time.Duration, stop, wake <-chan struct{}) (woke, ok bool) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	select {
	case <-stop:
		return false, false
	case <-wake:
		return true, true
	case <-t.C:
		return false, true
	}
}

// sendBatch sends one batch to the member and feeds the reply to the
// core. A gap reply restarts the member's queue at the backup's head
// (resendFrom).
func (s *Store) sendBatch(m *mirrorMember, req *kv.MirrorBatchReq) {
	sentAt := time.Now()
	err := m.send(req)
	var gap *kv.StreamGapError
	if errors.As(err, &gap) {
		if err = s.resendFrom(m.c, gap); err == nil {
			return
		}
	}
	if err != nil {
		s.sendFailed(m, err)
		return
	}
	if len(req.Recs) > 0 {
		s.stats.MirrorBatches.Add(1)
		s.stats.MirrorBatchRecords.Add(uint64(len(req.Recs)))
	}
	p := &s.pipe
	p.mu.Lock()
	p.core.ack(m.c, sentAt, req.From+uint64(len(req.Recs)))
	s.carryOutLocked()
	p.mu.Unlock()
}

// sendFailed feeds a failed send to the core, adopting first the newer
// configuration a refusal carries.
func (s *Store) sendFailed(m *mirrorMember, err error) {
	var we *kv.WrongEpochError
	if errors.As(err, &we) {
		s.AdoptEpoch(we.Epoch, we.Members)
	}
	p := &s.pipe
	p.mu.Lock()
	p.core.sendFailed(m.c, err, time.Now())
	s.carryOutLocked()
	p.mu.Unlock()
}

// pushSnapshot rebuilds the member's backup from this store's state: a
// capture under repMu, streamed through the member's send as it is
// encoded, one chunk per batch (kv.MirrorBatchReq.Snap, at its byte
// offset Off) and an empty last one on which the backup installs it.
// The source keeps no copy. The capture restarts the member's queue at
// its position, so the records emitted during the push follow it from
// the queue, however far the retained log has moved on. A store whose
// adopted epoch is past the one its stream installed has been deposed,
// and pushes nothing.
func (s *Store) pushSnapshot(m *mirrorMember) {
	p := &s.pipe
	s.repMu.Lock()
	sn := s.captureSnapshotLocked()
	if sn == nil {
		err := s.replica.wrongEpoch()
		s.repMu.Unlock()
		s.sendFailed(m, err)
		return
	}
	p.mu.Lock()
	p.core.capture(m.c, sn.Seq)
	p.mu.Unlock()
	s.repMu.Unlock()
	s.stats.SnapshotsServed.Add(1)
	var off uint64
	send := func(piece []byte, last bool) error {
		select {
		case <-m.stopCh:
			return errDetached
		default:
		}
		sentAt := time.Now()
		if err := m.send(&kv.MirrorBatchReq{From: sn.Seq, Epoch: sn.Epoch, Off: off, Snap: piece, Last: last}); err != nil {
			return err
		}
		off += uint64(len(piece))
		p.mu.Lock()
		p.core.chunk(m.c, sentAt, last)
		s.carryOutLocked()
		p.mu.Unlock()
		return nil
	}
	err := encodeSnapshot(sn, snapChunkBytes, func(piece []byte) error { return send(piece, false) })
	if err == nil {
		err = send(nil, true)
	}
	if err != nil {
		s.sendFailed(m, err)
	}
}

// resendFrom answers a backup's gap reply. Under repMu, so the stream
// cannot move, the member's queue becomes the retained records from the
// backup's head on, and its ack mark that head. A backup past this
// stream's head, or whose record below its head is not the one this
// stream holds there, holds records this stream never had
// (kv.ErrDiverged); one below the retained log lacks records that are
// gone (errBehindLog). The core answers either with a pushed snapshot.
func (s *Store) resendFrom(m *coreMember, gap *kv.StreamGapError) error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	head := gap.Head
	switch {
	case head > s.repSeq:
		return fmt.Errorf("%w: backup %s is at seq %d, past this stream's head %d: it applied records never in this stream", kv.ErrDiverged, m.id, head, s.repSeq)
	case head < s.logBase:
		return fmt.Errorf("%w: backup %s is at seq %d, the log is retained from %d", errBehindLog, m.id, head, s.logBase)
	case head > s.logBase:
		// The record below the head is retained. Its stamp is the epoch
		// this stream had in force there (a RecEpoch's stamp is the epoch
		// it installed, equally the epoch in force after it), and the
		// backup's checksum of its own record there, when it still holds
		// it, tells two records of one epoch apart.
		have := &s.commitLog[head-1-s.logBase]
		if have.Epoch != gap.StreamEpoch || gap.Last != 0 && recordChecksum(have) != gap.Last {
			return fmt.Errorf("%w: backup %s's record at seq %d (stream epoch %d) is not the one this stream holds there (epoch %d): the histories diverged", kv.ErrDiverged, m.id, head-1, gap.StreamEpoch, have.Epoch)
		}
	}
	p := &s.pipe
	p.mu.Lock()
	p.core.gap(m, head, append([]kv.ReplRecord(nil), s.commitLog[head-s.logBase:]...))
	s.carryOutLocked()
	p.mu.Unlock()
	return nil
}

// errBehindLog reports a backup whose stream head is below the
// primary's retained log: the records it lacks were truncated, so its
// sender pushes it a snapshot.
var errBehindLog = errors.New("kvserver: backup is behind the retained log")

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
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-s.pipe.wake:
		}
		if d := s.cfg.GroupCommitInterval; d > 0 {
			if _, ok := sleep(timer, d, stopCh, nil); !ok {
				return
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
	recs, to, w := p.walQ, p.walQEnd, p.wal
	p.walQ = nil
	p.walFlushing = len(recs) > 0
	p.mu.Unlock()
	if len(recs) == 0 {
		return false
	}
	synced, err := w.appendBatch(recs)
	p.mu.Lock()
	p.walFlushing = false
	p.walDone.Broadcast()
	s.walWrittenLocked(recs, to, synced, err)
	p.mu.Unlock()
	return true
}

// walWrittenLocked folds one batched append of recs, up to seq to, into
// the pipeline: on success the synced watermark advances and waiters
// complete. A failed batch is re-queued AT THE FRONT: the records must
// reach the file in stream order with no gap (the wal's torn-tail repair
// assumes the retry starts exactly where the clean prefix ends). Their
// waiters keep waiting — the retry may well succeed (a transient disk
// error); if the disk stays broken they time out as uncertain — and a
// delayed self-wake drives the retry even if no new emission comes. It
// reports whether the append succeeded. Caller holds pipe.mu.
func (s *Store) walWrittenLocked(recs []kv.ReplRecord, to uint64, synced bool, err error) bool {
	p := &s.pipe
	if err != nil {
		s.stats.WALFailures.Add(1)
		p.walQ = append(recs, p.walQ...)
		time.AfterFunc(walRetryDelay, s.wakeFlusher)
		return false
	}
	p.synced = max(p.synced, to)
	if synced {
		s.stats.WALSyncs.Add(1)
	}
	p.completeWaitersLocked()
	return true
}

// walRetryDelay paces retries of a failed batched WAL append, so a
// persistently broken disk does not spin the flusher.
const walRetryDelay = 100 * time.Millisecond

// discardWALLocked waits out any in-flight batched append and drops
// the queued records without writing them — used when a snapshot
// install supersedes them (the snapshot covers their effects, and the
// log file is about to be replaced wholesale). Caller holds repMu; the
// wait is bounded: at most one in-flight file write and fsync, never a
// network call.
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
func (s *Store) drainWALLocked() bool {
	if s.wal == nil {
		return true
	}
	p := &s.pipe
	p.mu.Lock()
	for p.walFlushing {
		p.walDone.Wait()
	}
	recs, to := p.walQ, p.walQEnd
	p.walQ = nil
	p.mu.Unlock()
	if len(recs) == 0 {
		return true
	}
	synced, err := s.wal.appendBatch(recs)
	p.mu.Lock()
	defer p.mu.Unlock()
	return s.walWrittenLocked(recs, to, synced, err)
}
