package kvserver

// Group-commit replication pipeline. Record EMISSION (under repMu) is
// decoupled from the DURABILITY WAIT. The store keeps one copy of the
// stream, its retained tail (commitLog), and every sink reads it at a
// cursor: the write-ahead log at walCursor, each member's sender at its
// member's position. Whoever emitted or applied records writes them to
// the log once it has released repMu (writeWAL: one writer at a time,
// each taking the whole tail past the cursor, so concurrent writers
// share one write and one fsync), and each sender cuts what accumulated
// past its position into a batched MirrorBatchReq RPC (one round trip,
// one lease grant, one contiguous apply per batch). Committers wait on
// the quorum and log watermarks before acknowledging the client.
//
// Every decision of the primary's side is the core's (replcore.go). Each
// member has its own sender goroutine, so a dead member never stalls the
// others: it asks the core for its next action, carries it out — a send,
// a snapshot push, or a wait on one timer set to the core's next
// deadline — and feeds the outcome back. What stays here is I/O and
// ordering: captures under repMu, the divergence checks against
// commitLog, the log writes, the sends, the waiters, and the lease's
// publication into the store's configuration view.

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
	joined chan error    // answers the attach
	wake   chan struct{} // an emission, or the core ended the sender
}

// replPipe is the per-store pipeline state. Lock order: repMu before
// flushMu before pipe.mu before wal.mu; pipe.mu is never held across
// network or disk I/O.
type replPipe struct {
	mu sync.Mutex

	core    replCore
	members []*mirrorMember // the core's members' senders

	// walCursor is where the write-ahead log's writers read the retained
	// tail: the log holds every record below it (fsynced when LogSync).
	walCursor uint64

	waiters []pipeWaiter

	// flushMu picks one write-ahead-log writer at a time: it is held
	// across a write's cut of the tail, its I/O and the cursor's move.
	flushMu sync.Mutex

	// senders counts the member senders still running: Server.Close
	// waits for the ones it detached.
	senders sync.WaitGroup
}

func (s *Store) initPipe() {
	s.pipe.core = newReplCore(s.cfg.LeaseDuration)
}

// durableLocked reports whether the record at seq satisfies every
// durability requirement currently in force: a quorum of voters holds
// it (while any voter is attached), and the WAL does (while there is
// one). Caller holds pipe.mu.
func (s *Store) durableLocked(seq uint64) bool {
	p := &s.pipe
	return (p.core.need == 0 || seq < p.core.mirrored) && (s.wal == nil || seq < p.walCursor)
}

// wakeUp tells m's sender the core has something for it. wake is
// buffered (cap 1), so a wake already pending covers this one.
func (m *mirrorMember) wakeUp() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// writeWAL makes the write-ahead log hold every record below to, writing
// the retained records from its cursor on. Whatever goroutine emitted or
// applied them calls it once it has released repMu. flushMu picks one
// writer at a time, and a writer finding its records written returns at
// once: each write takes the whole tail past the cursor, so it covers
// the records of the writers queued behind it. A writer that waits
// (wait: a primary's committer or aborter) first lets a configured
// GroupCommitInterval pass, holding flushMu, so the batch builds. It
// reports whether the log holds the records; a failed write leaves the
// cursor where it was, for the next writer to rewrite from there.
func (s *Store) writeWAL(to uint64, wait bool) bool {
	p := &s.pipe
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	done := s.wal == nil || to <= p.walCursor
	p.mu.Unlock()
	if done {
		return true
	}
	if d := s.cfg.GroupCommitInterval; wait && d > 0 {
		time.Sleep(d)
	}
	return s.flushLocked()
}

// flushLocked writes the retained records the write-ahead log lacks in
// one batched append, then advances the cursor and completes the
// waiters it made durable. The records between the cursor and the head
// are never truncated (truncateLogLocked), and no other writer runs, so
// the file receives them in stream order with no gap; a failed append
// leaves the cursor, and the next one repairs the torn tail before
// rewriting them (wal.appendBatch). Caller holds flushMu.
func (s *Store) flushLocked() bool {
	p := &s.pipe
	p.mu.Lock()
	w, from := s.wal, p.walCursor
	var recs []kv.ReplRecord
	if w != nil {
		recs = s.commitLog[from-s.logBase:]
	}
	p.mu.Unlock()
	if len(recs) == 0 {
		return true
	}
	synced, err := w.appendBatch(recs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		s.stats.WALFailures.Add(1)
		return false
	}
	p.walCursor = from + uint64(len(recs))
	if synced {
		s.stats.WALSyncs.Add(1)
	}
	s.completeWaitersLocked()
	return true
}

// walRetryDelay paces a waiter's retries of a failed write-ahead-log
// append, so a persistently broken disk does not spin it.
const walRetryDelay = 100 * time.Millisecond

// waitReplicated blocks until the record at seq is durable under the
// store's configured guarantees — acknowledged by a quorum of attached
// members, and in the write-ahead log (fsynced when LogSync) — or
// returns the error that failed it. It writes the log first
// (writeWAL), and retries that write while it fails. Callers must NOT
// hold repMu: the wait happening outside the stream lock is the whole
// point of group commit.
func (s *Store) waitReplicated(seq uint64) error {
	written := s.writeWAL(seq+1, true)
	p := &s.pipe
	p.mu.Lock()
	if err := p.core.failure(seq); err != nil || s.durableLocked(seq) {
		p.mu.Unlock()
		return err
	}
	w := pipeWaiter{seq: seq, ch: make(chan error, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
	t := time.NewTimer(replWaitTimeout)
	defer t.Stop()
	var retry <-chan time.Time
	if !written {
		tk := time.NewTicker(walRetryDelay)
		defer tk.Stop()
		retry = tk.C
	}
	for {
		select {
		case err := <-w.ch:
			return err
		case <-retry:
			if s.writeWAL(seq+1, false) {
				retry = nil
			}
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
}

// completeWaitersLocked answers every waiter that is now durable, and
// fails those covered by a permanent failure (a detach window or a
// lost quorum). Caller holds pipe.mu. Each waiter's channel is
// buffered (cap 1) and receives exactly one completion, so the send
// cannot block.
func (s *Store) completeWaitersLocked() {
	p := &s.pipe
	p.waiters = slices.DeleteFunc(p.waiters, func(w pipeWaiter) bool {
		if err := p.core.failure(w.seq); err != nil {
			w.ch <- err
		} else if s.durableLocked(w.seq) {
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
		s.completeWaitersLocked()
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
		m := &mirrorMember{c: c, send: send, joined: joined, wake: make(chan struct{}, 1)}
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
// senders stop, and the waiters are re-judged (see replCore.detach).
func (s *Store) detachMembers(drop func(id string) bool) {
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	s.stopSendersLocked(p.core.detach(drop))
}

// stopSendersLocked carries out a detach of the members gone: their
// joins are answered, then their senders woken to find they stop. Caller
// holds pipe.mu.
func (s *Store) stopSendersLocked(gone []*coreMember) {
	s.carryOutLocked()
	s.pipe.members = slices.DeleteFunc(s.pipe.members, func(m *mirrorMember) bool {
		if slices.Contains(gone, m.c) {
			m.wakeUp()
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
// a learner's failed join. Each batch the core cuts from the retained
// tail at the member's position. While the core has nothing for it, it
// sleeps until the core's next deadline (the heartbeat, or the end of a
// back-off) or a wake; with a configured GroupCommitInterval it waits
// that long after a wake to let a batch build, and at the default (0) it
// sends as soon as it is free — a lone writer pays no added latency,
// while concurrent writers coalesce into whatever accumulated during the
// previous batch's round trip.
func (s *Store) memberLoop(m *mirrorMember) {
	defer s.pipe.senders.Done()
	p := &s.pipe
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		p.mu.Lock()
		act := p.core.tick(m.c, time.Now(), s.commitLog, s.logBase)
		p.mu.Unlock()
		switch act.kind {
		case actStop:
			return
		case actSend:
			s.sendBatch(m, &kv.MirrorBatchReq{From: act.from, Epoch: act.epoch, Recs: act.recs})
		case actPush:
			s.pushSnapshot(m)
		case actWait:
			if sleep(timer, time.Until(act.until), m.wake) && s.cfg.GroupCommitInterval > 0 {
				sleep(timer, s.cfg.GroupCommitInterval, nil)
			}
		}
	}
}

// sleep waits d on t, or until wake fires, and reports whether it did.
func sleep(t *time.Timer, d time.Duration, wake <-chan struct{}) bool {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	select {
	case <-wake:
		return true
	case <-t.C:
		return false
	}
}

// sendBatch sends one batch to the member and feeds the reply to the
// core. A gap reply moves the member's position to the backup's head
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
// The source keeps no copy. The capture moves the member's position to
// the snapshot's, and the retained tail keeps every record from there on
// until the member has been sent up to the head (replCore.floor), so the
// records emitted during the push follow it from the tail however many
// they are. A store whose adopted epoch is past the one its stream
// installed has been deposed, and pushes nothing.
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
		p.mu.Lock()
		stopped := m.c.stop
		p.mu.Unlock()
		if stopped {
			return errDetached
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
// cannot move, the member's position and its ack mark become the
// backup's head, from which its sender resends the retained records. A backup past this
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
	p.core.gap(m, head)
	s.carryOutLocked()
	p.mu.Unlock()
	return nil
}

// errBehindLog reports a backup whose stream head is below the
// primary's retained log: the records it lacks were truncated, so its
// sender pushes it a snapshot.
var errBehindLog = errors.New("kvserver: backup is behind the retained log")

// drainWALLocked writes every retained record the write-ahead log
// lacks before a checkpoint rotation: a record written after the
// rotation began would be teed in after a snapshot that already covers
// it and double-apply on replay. It waits out any write in flight
// (bounded: one file write and fsync, never a network call), then
// writes the rest itself. Caller holds repMu, so no record can be
// emitted while it runs. It reports whether the log holds every
// record — false means the caller MUST NOT rotate.
func (s *Store) drainWALLocked() bool {
	p := &s.pipe
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	return s.flushLocked()
}
