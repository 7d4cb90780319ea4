package kvserver

// The primary's side of the replication protocol, as one value:
// replCore takes every decision of the member senders. It holds no lock,
// reads no clock (time comes in as an argument) and does no I/O; the
// pipeline calls it under pipe.mu, carries out what it returns — a
// member's next action (replAction), and the effects on waiters, joins
// and the lease (replEffect) — and feeds each outcome back as an event.
//
// QUORUM. The backups of the membership this store installed are its
// voters, and a record is replication-durable once need = (voters+1)/2
// of them hold it: with the primary's copy, a majority of the group, so
// any surviving majority intersects the ack set. A listed member with no
// sender holds nothing, so fewer than a majority of the group never
// completes a record; with no voter attached at all (a promotion's own
// install, before its peers are attached) nothing waits for acks, and
// the lease, with no grants, serves nothing. A member the membership
// does not list is a LEARNER (the Raft dissertation's non-voting member,
// §4.2.1): caught up before the install that lists it, it counts from
// that install on. Only backup replies move an ack mark: a batch's ack,
// a gap reply's head, an installed snapshot.
//
// FAILURE. A failed send breaks the member (parked): its retry, a
// back-off later (a heartbeat period, doubling up to the lease), probes
// at the stream head.
// It stays a voter, its past acks counting. With fewer live voters than
// need the quorum is LOST: every waiter at or above the watermark fails
// (uncertain), now or when it registers. A detach that leaves no voter
// fails the unacknowledged window alike, recorded in failRanges for late
// waiters. A refusal carrying a newer configuration, or a learner's
// failed join, ends the sender; any other member is retried without end,
// as Raft's leader retries AppendEntries.
//
// CATCH-UP. The core keeps no copy of the stream: each batch is cut
// from the store's retained tail, passed in, at the member's position,
// as a Raft leader sends each follower from its one log at nextIndex. A
// batch says where it starts, and a backup applies it only at its own
// head; otherwise it answers with its head (a gap), and the member's
// position moves there. A backup the retained tail no longer reaches —
// its position is below the tail's base, whether a gap reply says so or
// a truncation passed it — or whose history diverged, is pushed a
// snapshot (Raft's InstallSnapshot), whose capture moves its position to
// the snapshot's. From the capture until a batch reaches the head, the
// member holds the tail's floor: no truncation cuts a record it still
// needs, so a push catches up however much is emitted meanwhile. A
// member's first batch, the probe, goes at once at the head at its
// attach; its join succeeds once it holds that head.
//
// LEASE. A batch the backup accepted is that member's grant, lasting the
// lease from before it was sent; a member sent nothing for a third of
// the lease is sent an empty batch, the heartbeat. The primary serves
// until the (len(members)/2)-th latest grant among its voters: the
// quorum's majority, over the same table.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"yesquel/internal/kv"
)

// replCore is the replication state of a primary: the membership it
// installed, its attached members and the marks derived from them.
type replCore struct {
	lease     time.Duration // a grant lasts this long from its batch's send
	heartbeat time.Duration // an idle member is sent an empty batch this often

	epoch   uint64   // the epoch this store installed (0: none yet)
	listed  []string // that membership's backups
	members []*coreMember
	head    uint64 // the stream position of the next record emitted
	// streamEpoch is the epoch the stream installed at the head, which
	// every batch is stamped with — not an adopted one: a deposed primary
	// still sends its old epoch, which a member of its successor refuses.
	streamEpoch uint64

	need       int    // voter acks completing a majority; 0 with no voter attached
	mirrored   uint64 // quorum watermark: need voters hold every record below it (monotone)
	quorumErr  error  // set while fewer than need voters are live
	quorumFrom uint64 // the watermark when the quorum was lost
	failRanges []failRange
	leaseUntil time.Time

	out []replEffect // what the events since the last drain ask of the pipeline
}

// coreMember is one attached member's state in the core.
type coreMember struct {
	id      string
	voter   bool // the installed membership lists it
	joining bool // its attach is not answered yet
	joinAt  uint64
	next    uint64 // the stream position its next batch starts at
	acked   uint64 // its backup holds every record below acked
	broken  bool   // its last send failed; retried from retryAt
	err     error
	parked  bool // its retry probes at the stream head
	push    bool // its backup needs a snapshot
	pushing bool // a snapshot of the stream at pushSeq is being pushed
	holds   bool // pushed a snapshot and not yet sent up to the head: the tail is kept from next
	stop    bool // its sender ends: detached, deposed, or a learner's join failed
	pushSeq uint64
	chunks  uint64 // snapshot chunks accepted: a push's progress, which acked does not show
	retryAt time.Time
	backoff time.Duration
	beatAt  time.Time // an idle member is sent an empty batch from then
	grant   time.Time // the lease its accepted batches grant
}

// replAction is what a member's sender does next.
type replAction struct {
	kind  actionKind
	from  uint64          // actSend: the stream position of recs[0]
	epoch uint64          // actSend: the stream epoch it is stamped with
	recs  []kv.ReplRecord // actSend: none is the probe or a heartbeat
	until time.Time       // actWait: the member's next deadline
}

type actionKind int

const (
	actWait actionKind = iota // until then, or a wake
	actSend
	actPush
	actStop
)

// replEffect is one outcome of an event for the pipeline to carry out.
type replEffect struct {
	kind     effectKind
	m        *coreMember // effJoin
	from, to uint64      // effComplete: the watermark in to; effFail: the window
	err      error       // effFail, effJoin
	until    time.Time   // effLease
}

type effectKind int

const (
	effComplete effectKind = iota // the watermark advanced: waiters below it are replicated
	effFail                       // no record in [from, to) can be acknowledged: fail its waiters
	effJoin                       // answer m's attach with err
	effLease                      // the lease now ends at until
)

// failRange is one permanently unackable window of the stream.
type failRange struct {
	from, to uint64
	err      error
}

// failRangesMax bounds failRanges: one entry per window failure, the
// oldest dropped (by then every waiter in it has long timed out).
const failRangesMax = 32

// errDetached answers the join of, and ends a push to, a member
// detached first.
var errDetached = errors.New("kvserver: mirror member detached")

func newReplCore(lease time.Duration) replCore {
	return replCore{lease: lease, heartbeat: max(lease/3, time.Millisecond), streamEpoch: 1}
}

// emit: the record at seq entered the stream.
func (c *replCore) emit(seq uint64, rec *kv.ReplRecord) {
	c.head = seq + 1
	if rec.Kind == kv.RecEpoch {
		c.streamEpoch = max(c.streamEpoch, rec.Epoch)
	}
}

// floor is the lowest stream position a member still needs the
// retained tail to hold: the position of each member that holds it (see
// CATCH-UP), or the head.
func (c *replCore) floor() uint64 {
	f := c.head
	for _, m := range c.members {
		if m.holds {
			f = min(f, m.next)
		}
	}
	return f
}

// attach adds the member id at the stream head, a voter if the
// membership in force lists it. It returns nil if id is attached.
func (c *replCore) attach(id string) *coreMember {
	if slices.ContainsFunc(c.members, func(m *coreMember) bool { return m.id == id }) {
		return nil
	}
	m := &coreMember{id: id, voter: slices.Contains(c.listed, id), joining: true, joinAt: c.head, next: c.head, backoff: c.heartbeat}
	c.members = append(c.members, m)
	c.recompute()
	return m
}

// detach removes the members drop selects and returns them. One that
// leaves no voter fails the unacknowledged window: a detach never
// acknowledges a record too few members hold.
func (c *replCore) detach(drop func(id string) bool) (gone []*coreMember) {
	had := c.need > 0
	c.members = slices.DeleteFunc(c.members, func(m *coreMember) bool {
		if !drop(m.id) {
			return false
		}
		m.stop = true
		c.answer(m, errDetached)
		gone = append(gone, m)
		return true
	})
	if had && !slices.ContainsFunc(c.members, func(m *coreMember) bool { return m.voter }) && c.head > c.mirrored {
		err := errors.New("kvserver: mirror detached while awaiting replication")
		c.failRanges = append(c.failRanges, failRange{from: c.mirrored, to: c.head, err: err})
		c.failRanges = slices.Delete(c.failRanges, 0, max(0, len(c.failRanges)-failRangesMax))
		c.out = append(c.out, replEffect{kind: effFail, from: c.mirrored, to: c.head, err: err})
	}
	c.recompute()
	return gone
}

// install makes members — this store first — the membership in force at
// epoch: the members it does not list are detached, and its backups are
// the voters.
func (c *replCore) install(epoch uint64, members []string) (gone []*coreMember) {
	gone = c.detach(func(id string) bool { return !slices.Contains(members, id) })
	c.epoch, c.listed = epoch, nil
	if len(members) > 1 {
		c.listed = slices.Clone(members[1:])
	}
	for _, m := range c.members {
		m.voter = slices.Contains(c.listed, m.id)
	}
	c.recompute()
	return gone
}

// restart: a snapshot installed moved the stream to head, in epoch;
// every member's position moves there.
func (c *replCore) restart(head, epoch uint64) {
	c.head, c.streamEpoch = head, epoch
	for _, m := range c.members {
		m.next, m.holds = head, false
	}
}

// ack: m's backup accepted the batch sent at sentAt, and holds every
// record below upto.
func (c *replCore) ack(m *coreMember, sentAt time.Time, upto uint64) {
	if !m.stop {
		m.acked = upto
		c.accepted(m, sentAt)
	}
}

// gap: m's backup is at head, which the retained tail reaches; its
// position moves there.
func (c *replCore) gap(m *coreMember, head uint64) {
	if !m.stop {
		m.next, m.acked = head, head
		c.progress(m)
	}
}

// capture: a snapshot of the stream at seq is being pushed to m; its
// position moves there, and it holds the tail from there on.
func (c *replCore) capture(m *coreMember, seq uint64) {
	m.next, m.parked, m.push, m.pushing, m.holds, m.pushSeq = seq, false, false, true, true, seq
}

// chunk: m's backup accepted a snapshot chunk sent at sentAt; on the
// last, empty one it installed the snapshot.
func (c *replCore) chunk(m *coreMember, sentAt time.Time, last bool) {
	if m.stop {
		return
	}
	m.chunks++
	if last {
		m.acked, m.pushing = m.pushSeq, false
	}
	c.accepted(m, sentAt)
}

// accepted: m's backup accepted what was sent at sentAt, which heals it
// and extends its grant.
func (c *replCore) accepted(m *coreMember, sentAt time.Time) {
	if !m.pushing {
		m.broken, m.err, m.backoff = false, nil, c.heartbeat
	}
	if g := sentAt.Add(c.lease); g.After(m.grant) {
		m.grant = g
	}
	c.progress(m)
}

func (c *replCore) progress(m *coreMember) {
	if m.acked >= m.joinAt {
		c.answer(m, nil)
	}
	c.recompute()
}

// sendFailed: a send to m failed with err at now. A backup behind the
// retained log or diverged from it is pushed a snapshot; any other
// failure, the push's own included, breaks the member.
func (c *replCore) sendFailed(m *coreMember, err error, now time.Time) {
	if m.stop {
		return
	}
	if !m.pushing && (errors.Is(err, errBehindLog) || errors.Is(err, kv.ErrDiverged)) {
		m.push = true
		return
	}
	var we *kv.WrongEpochError
	m.stop = errors.As(err, &we) || m.joining && !m.voter
	m.broken, m.err, m.parked, m.pushing, m.holds = true, err, true, false, false
	m.retryAt = now.Add(m.backoff)
	m.backoff = min(2*m.backoff, c.lease)
	c.answer(m, err)
	c.recompute()
}

// tick returns m's next action at now, given the retained tail, whose
// first record is at base: after a failure, the retry's probe at the
// stream head once its back-off is over; a pushed snapshot, when its
// backup needs one or its position is below base; the next batch of the
// tail from its position, bounded by mirrorBatchMaxRecords and
// mirrorBatchBytes (one record always goes: it crossed the wire once
// already, so it fits a frame); an empty batch once it is due a
// heartbeat; or else a wait until then.
func (c *replCore) tick(m *coreMember, now time.Time, tail []kv.ReplRecord, base uint64) replAction {
	switch {
	case m.stop:
		return replAction{kind: actStop}
	case m.broken && now.Before(m.retryAt):
		return replAction{kind: actWait, until: m.retryAt}
	case m.parked:
		m.next, m.parked = c.head, false
	case m.push, m.next < base:
		return replAction{kind: actPush}
	case m.next == c.head && now.Before(m.beatAt):
		return replAction{kind: actWait, until: m.beatAt}
	}
	recs := tail[m.next-base:]
	n, bytes := 0, 0
	for n < min(len(recs), mirrorBatchMaxRecords) {
		sz := recordSize(&recs[n])
		if n > 0 && bytes+sz > mirrorBatchBytes {
			break
		}
		bytes += sz
		n++
	}
	a := replAction{kind: actSend, from: m.next, epoch: c.streamEpoch, recs: recs[:n:n]}
	if m.next += uint64(n); m.next == c.head {
		m.holds = false
	}
	m.beatAt = now.Add(c.heartbeat)
	return a
}

// answer delivers m's join outcome, once.
func (c *replCore) answer(m *coreMember, err error) {
	if m.joining {
		m.joining = false
		c.out = append(c.out, replEffect{kind: effJoin, m: m, err: err})
	}
}

// recompute refreshes need, advances the watermark to the need-th
// largest voter ack, keeps the quorum-lost state, and moves the lease to
// the majority-th latest voter grant.
func (c *replCore) recompute() {
	majority := (len(c.listed) + 1) / 2
	voters, live := 0, 0
	var memberErr error
	for _, m := range c.members {
		if m.voter {
			voters++
			if m.broken {
				memberErr = m.err
			} else {
				live++
			}
		}
	}
	c.need = 0
	if voters > 0 {
		c.need = majority
	}
	if m := c.kth(c.need, func(a, b *coreMember) bool { return a.acked >= b.acked }); m != nil && m.acked > c.mirrored {
		c.mirrored = m.acked
		c.out = append(c.out, replEffect{kind: effComplete, to: c.mirrored})
	}
	switch {
	case live >= c.need:
		c.quorumErr = nil
	case c.quorumErr == nil:
		if memberErr == nil {
			memberErr = errors.New("kvserver: replication member unavailable")
		}
		c.quorumErr = fmt.Errorf("kvserver: replication quorum lost (%d of %d members live, need %d): %w", live, len(c.listed), c.need, memberErr)
		c.quorumFrom = c.mirrored
		c.out = append(c.out, replEffect{kind: effFail, from: c.mirrored, to: math.MaxUint64, err: c.quorumErr})
	}
	var lease time.Time
	if m := c.kth(majority, func(a, b *coreMember) bool { return !a.grant.Before(b.grant) }); m != nil {
		lease = m.grant
	}
	if !lease.Equal(c.leaseUntil) {
		c.leaseUntil = lease
		c.out = append(c.out, replEffect{kind: effLease, until: lease})
	}
}

// kth returns the voter holding the k-th largest value by ge, or nil
// when fewer than k voters are attached. A group has a handful of
// members, so it counts in place rather than sort a copy.
func (c *replCore) kth(k int, ge func(a, b *coreMember) bool) *coreMember {
	if k == 0 {
		return nil
	}
	var best *coreMember
	for _, m := range c.members {
		if !m.voter {
			continue
		}
		reached := 0
		for _, o := range c.members {
			if o.voter && ge(o, m) {
				reached++
			}
		}
		if reached >= k && (best == nil || ge(m, best)) {
			best = m
		}
	}
	return best
}

// leaseFor returns the lease of a store whose epoch in force is epoch,
// and whether the core decides it: the deadline counted over the
// membership the core installed; under any other, none — its grants
// were counted over a different group.
func (c *replCore) leaseFor(epoch uint64) (time.Time, bool) {
	if epoch != c.epoch {
		return time.Time{}, false
	}
	return c.leaseUntil, true
}

// failure returns the permanent failure covering seq, if any.
func (c *replCore) failure(seq uint64) error {
	for _, r := range c.failRanges {
		if seq >= r.from && seq < r.to {
			return r.err
		}
	}
	if c.quorumErr != nil && seq >= c.quorumFrom {
		return c.quorumErr
	}
	return nil
}
