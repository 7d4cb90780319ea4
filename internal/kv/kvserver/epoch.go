package kvserver

// The backup's side of the replication protocol, as one value:
// replicaCore takes every decision a member makes about the configuration
// it holds and the stream it is fed. Like replCore, the primary's side, it
// holds no lock, reads no clock (time comes in as an argument) and does no
// I/O: the store calls it under repMu and carries out its verdicts — apply
// a batch's records, keep a snapshot chunk, install a pushed snapshot — or
// returns its typed refusal: a *kv.WrongEpochError, a *kv.StreamGapError,
// kv.ErrBadRequest or, from the splice guard, kv.ErrDiverged.
//
// The configuration in force (epoch, members) only moves forward: by
// install, a RecEpoch the stream carries or a snapshot, or by adopt, one
// learned out of band from a refusal. The stream epoch is the one the
// stream installed at its head, and only install moves it: a deposed
// primary adopts its successor's epoch, but its stream still ends in the
// old epoch's records.

import (
	"fmt"
	"slices"
	"time"

	"yesquel/internal/kv"
)

// Member roles derived from the current epoch's membership.
const (
	// RolePrimary: first member of the current epoch; serves client
	// operations while its lease is valid.
	RolePrimary = "primary"
	// RoleBackup: a non-primary member; applies the replication stream
	// and grants the primary's lease, but rejects client operations.
	RoleBackup = "backup"
	// RoleRemoved: not in the current membership (a deposed primary that
	// learned of its successor, or a member whose address changed);
	// rejects everything with a redirect.
	RoleRemoved = "removed"
)

// replicaCore is a member's configuration and its stream's acceptance
// state.
type replicaCore struct {
	lease time.Duration // a grant lasts this long from its batch's receipt

	self    string    // this member's address; its role follows from its place in members
	epoch   uint64    // the configuration in force; never zero
	members []string  // its membership, acting primary first
	since   time.Time // when epoch came into force: a superseded prepare's orphan TTL starts here
	// streamEpoch is the epoch the stream installed at or below its head,
	// which every record applied at the head is stamped with.
	streamEpoch uint64
	promoting   bool      // a promotion waits out the grant: every batch is refused
	grant       time.Time // the latest grant: no promotion is accepted before it

	pushing  bool   // a pushed snapshot is being assembled
	pushFrom uint64 // the stream position it covers
	pushLen  uint64 // its bytes accepted so far
}

// newReplicaCore returns a store's birth state: the sole primary of its
// own one-member group (named by rename once it has an address), its
// stream starting in epoch 1.
func newReplicaCore(lease time.Duration) replicaCore {
	return replicaCore{lease: lease, epoch: 1, members: []string{""}, streamEpoch: 1}
}

// batch: a mirror batch stamped epoch, carrying recs, arrived at now. It
// is refused while a promotion waits out the grant, when its sender was
// deposed (an epoch older than the one in force: the batch's, not its
// records', which a resend from the retained log stamps older), or when
// a configuration it carries fails configOK. Accepted, it extends the
// grant to its receipt plus the lease, and returns it: the primary counts
// the batch as a grant from before it sent it, so the grant outlasts the
// authority it confers.
func (c *replicaCore) batch(epoch uint64, recs []kv.ReplRecord, now time.Time) (grant time.Time, err error) {
	if c.promoting {
		return time.Time{}, fmt.Errorf("promotion in progress: %w", c.wrongEpoch())
	}
	if epoch < c.epoch {
		return time.Time{}, fmt.Errorf("batch from deposed primary: %w", c.wrongEpoch())
	}
	for i := range recs {
		if rec := &recs[i]; rec.Kind == kv.RecEpoch && !c.configOK(rec.Epoch, rec.Members) {
			return time.Time{}, fmt.Errorf("stale configuration change to epoch %d: %w", rec.Epoch, c.wrongEpoch())
		}
	}
	if until := now.Add(c.lease); until.After(c.grant) {
		c.grant = until
	}
	return c.grant, nil
}

// records: an accepted batch carries records from stream position from
// on, and this replica's stream is at head. It abandons any push; one not
// at the head is a gap, answered with the head and the stream epoch (the
// store adds the checksum of its record below the head).
func (c *replicaCore) records(from, head uint64) *kv.StreamGapError {
	c.pushing = false
	if from != head {
		return &kv.StreamGapError{Head: head, StreamEpoch: c.streamEpoch}
	}
	return nil
}

// chunk: an accepted batch carries n bytes at offset off of a snapshot of
// the stream at position from, the last one empty. A chunk at offset 0
// starts a push; any other must extend the one in progress exactly — a
// piece of an abandoned push, arriving late, is refused. It reports
// whether the push is complete, to be decoded and judged by snapshot.
func (c *replicaCore) chunk(off, from uint64, n int, last bool) (complete bool, err error) {
	if off == 0 {
		c.pushing, c.pushFrom, c.pushLen = true, from, 0
	}
	if !c.pushing || off != c.pushLen || from != c.pushFrom {
		return false, fmt.Errorf("%w: snapshot chunk at offset %d of the push of seq %d, which is at offset %d of seq %d", kv.ErrBadRequest, off, from, c.pushLen, c.pushFrom)
	}
	c.pushLen += uint64(n)
	c.pushing = !last
	return last, nil
}

// snapshot: the completed push decoded as the state at stream position
// seq, in epoch with members. It may be installed if it covers the
// position the push announced and its configuration passes configOK, as
// a RecEpoch's must; epoch 1, a store's own group, has none to guard.
func (c *replicaCore) snapshot(epoch uint64, members []string, seq uint64) error {
	if seq != c.pushFrom {
		return fmt.Errorf("%w: pushed snapshot covers seq %d, announced %d", kv.ErrBadRequest, seq, c.pushFrom)
	}
	if epoch > 1 && !c.configOK(epoch, members) {
		return fmt.Errorf("pushed snapshot of a stale configuration at epoch %d: %w", epoch, c.wrongEpoch())
	}
	return nil
}

// record is the splice guard on rec, arriving at stream position seq:
// every record but a RecEpoch must be stamped with exactly the stream
// epoch, and a RecEpoch must advance it; any other belongs to a history
// this replica never installed. The classic case is a diverged-but-BEHIND
// replica fed by a successor whose retained log no longer reaches the
// record below its head: the positions all agree, and the first record's
// stamp is the only tell. It checks the stream epoch, not the one in
// force: a rejoining member that adopted the new epoch out of band must
// still apply the RecEpoch that installed it.
func (c *replicaCore) record(rec *kv.ReplRecord, seq uint64) error {
	if rec.Kind == kv.RecEpoch && rec.Epoch <= c.streamEpoch || rec.Kind != kv.RecEpoch && rec.Epoch != c.streamEpoch {
		return fmt.Errorf("%w: record at seq %d stamped epoch %d but this replica's stream installed epoch %d there: the histories diverged", kv.ErrDiverged, seq, rec.Epoch, c.streamEpoch)
	}
	return nil
}

// beginPromotion freezes the grant until the next configuration comes
// into force, so no ack in flight can extend the old primary's authority
// past the grant the promotion waits out.
func (c *replicaCore) beginPromotion() { c.promoting = true }

// adopt: the configuration epoch with members, learned out of band, came
// into force at now if it is newer; it reports whether it was.
func (c *replicaCore) adopt(epoch uint64, members []string, now time.Time) bool {
	if epoch <= c.epoch {
		return false
	}
	c.epoch, c.members, c.since, c.promoting = epoch, slices.Clone(members), now, false
	return true
}

// install: the stream installed the configuration epoch with members at
// now — a RecEpoch emitted or applied at the head, or a snapshot.
func (c *replicaCore) install(epoch uint64, members []string, now time.Time) bool {
	c.streamEpoch = epoch
	return c.adopt(epoch, members, now)
}

// rename: this member's address is now addr, in its place in the
// membership.
func (c *replicaCore) rename(addr string) {
	members := slices.Clone(c.members)
	for i, m := range members {
		if m == c.self {
			members[i] = addr
		}
	}
	c.members, c.self = members, addr
}

// configOK reports whether a configuration change to epoch with members,
// mirrored as a RecEpoch or carried by a pushed snapshot, may come into
// force here. One above the epoch in force advances it. One AT it must
// carry its membership: a loser of a failover adopts its winner's epoch
// out of band before the winner's RecEpoch reaches it, and a deposed
// primary installing the same epoch number for its own group must not
// collect this replica's ack — that would make two primaries at one
// epoch. One below it is history a member still catching up to its
// adopted epoch lacks (a configuration change its winner applied and it
// missed); once its stream has installed the adopted epoch, nothing older
// is legitimate.
func (c *replicaCore) configOK(epoch uint64, members []string) bool {
	switch {
	case epoch > c.epoch:
		return true
	case epoch == c.epoch:
		return slices.Equal(members, c.members)
	default:
		return c.adopted()
	}
}

// adopted reports whether the epoch in force came into force out of
// band, past the one the stream installed.
func (c *replicaCore) adopted() bool { return c.streamEpoch < c.epoch }

// role is this member's role under the configuration in force.
func (c *replicaCore) role() string {
	switch i := slices.Index(c.members, c.self); {
	case i == 0:
		return RolePrimary
	case i > 0:
		return RoleBackup
	}
	return RoleRemoved
}

// wrongEpoch is a refusal carrying the configuration in force.
func (c *replicaCore) wrongEpoch() *kv.WrongEpochError {
	return &kv.WrongEpochError{Epoch: c.epoch, Members: slices.Clone(c.members)}
}
