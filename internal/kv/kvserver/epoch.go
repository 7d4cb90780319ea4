package kvserver

import (
	"fmt"
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

// SetSelf records this member's advertised address; the epoch role
// (primary / backup / removed) follows from its position in the
// current membership. Server.Listen calls it with the bound address.
// The member keeps its place in the membership under the new name, so
// a fresh store stays the sole primary of its own group.
func (s *Store) SetSelf(addr string) {
	s.epochMu.Lock()
	// Renamed in a copy: the installed slice may be shared with the
	// RecEpoch record that installed it.
	members := append([]string(nil), s.epochMembers...)
	for i, m := range members {
		if m == s.self {
			members[i] = addr
		}
	}
	s.epochMembers, s.self = members, addr
	s.epochMu.Unlock()
}

// Epoch returns the store's current replication-group epoch.
func (s *Store) Epoch() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epoch
}

// Members returns a copy of the current membership, primary first.
func (s *Store) Members() []string {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return append([]string(nil), s.epochMembers...)
}

// Role reports this member's role under the current epoch.
func (s *Store) Role() string {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.roleLocked()
}

func (s *Store) roleLocked() string {
	if len(s.epochMembers) > 0 && s.epochMembers[0] == s.self {
		return RolePrimary
	}
	for _, m := range s.epochMembers {
		if m == s.self {
			return RoleBackup
		}
	}
	return RoleRemoved
}

// LeaseValid reports whether this member currently holds the authority
// a lease confers: true for sole members and backups (their authority
// questions are answered by role, not lease), and for
// a multi-member primary only while a majority of the group backs it —
// its own vote plus unexpired grants from at least half the remaining
// members (the quorum lease; a pair needs its one backup's grant).
func (s *Store) LeaseValid() bool {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.leaseValidLocked()
}

// leaseValidLocked implements LeaseValid against the one deadline the
// replication core publishes (leaseUntil). Caller holds epochMu.
func (s *Store) leaseValidLocked() bool {
	return len(s.epochMembers) <= 1 || s.roleLocked() != RolePrimary || time.Now().Before(s.leaseUntil)
}

// GrantExpiry returns when the lease this member last granted runs
// out; a non-forced promotion must wait until then, which is what
// guarantees the deposed primary stopped serving first.
func (s *Store) GrantExpiry() time.Time {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.grantUntil
}

// BeginPromotion freezes this member's grant clock: from here until
// the next epoch installs, every mirror batch is refused, so no
// in-flight ack can extend the old primary's authority past the grant
// expiry the promotion waits out.
func (s *Store) BeginPromotion() {
	s.epochMu.Lock()
	s.promoting = true
	s.epochMu.Unlock()
}

// wrongEpochLocked builds the typed rejection carrying the current
// configuration. Caller holds epochMu.
func (s *Store) wrongEpochLocked() *kv.WrongEpochError {
	s.stats.WrongEpochRejects.Add(1)
	return &kv.WrongEpochError{Epoch: s.epoch, Members: append([]string(nil), s.epochMembers...)}
}

// CheckClientOp gates a client operation (read or write) behind the
// epoch discipline: only the current epoch's primary serves, only
// while its lease is valid, and only for requests stamped with the
// current epoch (or 0, a client that has not yet learned its group's
// epoch and will from the response's piggyback). Every rejection is a
// *WrongEpochError carrying the current epoch and membership, and
// guarantees the operation was not executed.
func (s *Store) CheckClientOp(reqEpoch uint64) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	// A lost quorum lease rejects like a wrong role: a majority of the
	// group may already have promoted a successor and be acknowledging
	// writes under a new epoch, and serving anything — even a read —
	// could contradict it.
	if s.roleLocked() != RolePrimary || (reqEpoch != 0 && reqEpoch != s.epoch) || !s.leaseValidLocked() {
		return s.wrongEpochLocked()
	}
	return nil
}

// InstallEpoch moves the group to a new configuration: the epoch must
// exceed the current one, and the change is a RecEpoch record in the
// replication stream, so the whole group agrees on the configuration
// history in stream order. The installed membership is the quorum's and
// the lease's (replCore.install): before the record is emitted, every
// member sender the list does not name is detached, and the members it
// names vote. Emission and installation happen under the stream lock,
// so no record is stamped with a configuration already superseded;
// InstallEpoch returns once the record has cleared the durability
// watermark. A replication failure leaves the epoch installed locally —
// the change is real — and reports that the group has not acknowledged
// it.
func (s *Store) InstallEpoch(newEpoch uint64, members []string) error {
	s.repMu.Lock()
	s.epochMu.Lock()
	cur := s.epoch
	s.epochMu.Unlock()
	if newEpoch <= cur {
		s.repMu.Unlock()
		return fmt.Errorf("kvserver: epoch %d does not supersede current epoch %d", newEpoch, cur)
	}
	s.pipe.mu.Lock()
	s.stopSendersLocked(s.pipe.core.install(newEpoch, members))
	s.pipe.mu.Unlock()
	rec := kv.ReplRecord{Kind: kv.RecEpoch, Epoch: newEpoch, Members: append([]string(nil), members...)}
	seq := s.emitLocked(rec)
	s.installEpochState(newEpoch, rec.Members)
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
	s.installEpochState(newEpoch, append([]string(nil), members...))
}

// installEpochState applies a configuration change to the in-memory
// epoch state and restarts the orphan TTL for prepares of superseded
// epochs (the coordinator gets a full TTL after a failover to redirect
// its decision before the sweep may reap them). The TTL reset runs
// BEFORE the new epoch is published: a concurrent SweepOrphans that
// already read the new epoch could otherwise win the race for txMu and
// reap a just-superseded prepare with zero post-bump grace. The install
// re-checks monotonicity under epochMu, since callers' checks run under
// other locks or none. It publishes the lease with it (replCore.leaseFor).
func (s *Store) installEpochState(newEpoch uint64, members []string) {
	now := time.Now()
	s.txMu.Lock()
	for _, rec := range s.txs {
		if rec.epoch < newEpoch && rec.preparedAt.Before(now) {
			rec.preparedAt = now
		}
	}
	s.txMu.Unlock()
	s.pipe.mu.Lock()
	defer s.pipe.mu.Unlock()
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if newEpoch <= s.epoch {
		return
	}
	s.epoch = newEpoch
	s.epochMembers = members
	s.promoting = false
	s.leaseUntil, _ = s.pipe.core.leaseFor(newEpoch)
	s.stats.EpochBumps.Add(1)
}
