package kvserver

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Config tunes a Store. Zero values select defaults; OpenStore rejects
// negative ones.
type Config struct {
	// MaxVersions caps the length of a version chain (default 64).
	MaxVersions int
	// RetentionMillis is how long superseded versions stay readable
	// (default 10000), measured against the newest commit timestamp in
	// the stream rather than this member's clock, so that every member of
	// a group collects the same versions (see "Version GC" in the package
	// comment). Snapshots older than this may miss versions.
	RetentionMillis uint64
	// LockWaitTimeout bounds how long a read waits for a prepared
	// transaction to resolve (default 2s).
	LockWaitTimeout time.Duration
	// LogPath enables the write-ahead log: committed operations are
	// appended there and replayed by OpenStore after a restart. Empty
	// disables durability (pure in-memory server).
	LogPath string
	// LogSync fsyncs the log on every commit. Off, the log is still
	// written in commit order but a host crash can lose the tail.
	LogSync bool
	// ReplicationLogMaxRecords bounds the stream tail every store retains
	// in memory (what a mirror resends to a backup that is behind). The
	// promise is about memory and it is strict: when the tail
	// exceeds this many records it is cut to its newest half, so a backup
	// that falls behind the retained tail catches up by a pushed snapshot
	// + tail instead of a full-history replay. It is also
	// the floor of the write-ahead log's rotation cadence — the file is
	// considered only when the tail is cut — but no longer its trigger:
	// the log is rotated onto a state snapshot once the records appended
	// since the last one amount to the state's own size (see
	// "Checkpoints" in the package comment), which bounds the file and a
	// restart's replay at about twice the state whatever this is set to.
	// 0 (the default) bounds the tail by logMaxBytes of estimated
	// record bytes instead, so no store's tail is unbounded.
	ReplicationLogMaxRecords int
	// LeaseDuration is how long a primary's authority to serve lasts
	// after its last acknowledgment from the backup (default 2s). Every
	// mirror batch a backup accepts extends the primary's lease; the
	// backup symmetrically promises not to accept a promotion until the
	// grant expires. A member sent nothing for LeaseDuration/3 gets an
	// empty batch, the heartbeat. Shorter leases mean faster failover
	// but less tolerance for mirror-path hiccups. Only meaningful in a
	// group of more than one member.
	LeaseDuration time.Duration
	// GroupCommitInterval is how long the replication pipeline waits
	// after waking before it flushes, letting a batch build (default 0:
	// flush as soon as the flusher is free — a lone writer pays no
	// added latency, and concurrent writers still coalesce into
	// whatever accumulated during the previous batch's round trip).
	GroupCommitInterval time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxVersions == 0 {
		out.MaxVersions = 64
	}
	if out.RetentionMillis == 0 {
		out.RetentionMillis = 10000
	}
	if out.LockWaitTimeout == 0 {
		out.LockWaitTimeout = 2 * time.Second
	}
	if out.LeaseDuration == 0 {
		out.LeaseDuration = 2 * time.Second
	}
	// The durability wait times out at replWaitTimeout; an interval at
	// or above it would fail every commit while the batch lands fine
	// moments later. Clamp well below, where coalescing gains flattened
	// out long ago.
	if out.GroupCommitInterval > maxGroupCommitInterval {
		out.GroupCommitInterval = maxGroupCommitInterval
	}
	return out
}

// check names the first field holding a negative value, which no field
// gives a meaning.
func (c *Config) check() error {
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"MaxVersions", c.MaxVersions < 0},
		{"ReplicationLogMaxRecords", c.ReplicationLogMaxRecords < 0},
		{"LockWaitTimeout", c.LockWaitTimeout < 0},
		{"LeaseDuration", c.LeaseDuration < 0},
		{"GroupCommitInterval", c.GroupCommitInterval < 0},
	} {
		if f.negative {
			return fmt.Errorf("kvserver: Config.%s is negative", f.name)
		}
	}
	return nil
}

// logMaxBytes bounds, in estimated record bytes, the retained tail of a
// store with no ReplicationLogMaxRecords. A memory budget, not a tuning:
// a few percent of a storage server's memory, and minutes of writes —
// ample for a briefly absent backup to rejoin by record replay. A
// variable so tests can bound a tail of a few records.
var logMaxBytes = 64 << 20

// prepareTTL is how long an undecided prepare keeps its write locks once
// its epoch is superseded (see SweepOrphans); it must comfortably exceed
// a coordinator's time to redirect its phase-two drive. decidedTTL is
// how long an outcome stays in the decided table, which makes a retried
// Commit/Abort idempotent. Variables so tests can expire them in
// milliseconds.
var (
	prepareTTL = 60 * time.Second
	decidedTTL = 60 * time.Second
)

// maxGroupCommitInterval caps the configured coalescing delay far
// below the pipeline's durability-wait timeout.
const maxGroupCommitInterval = time.Second

// Stats counts store activity; read with Snapshot. Prepares and Commits
// count the two phases of two-phase transactions, FastCommits one-shot
// transactions; a fast commit counts as neither a prepare nor a commit,
// so Commits+FastCommits is the total number of logical commits and
// Prepares+Commits+FastCommits the commit-path requests served.
type Stats struct {
	Reads        atomic.Uint64
	ReadWaits    atomic.Uint64
	Prepares     atomic.Uint64
	Commits      atomic.Uint64
	FastCommits  atomic.Uint64
	Aborts       atomic.Uint64
	OrphanAborts atomic.Uint64
	Conflicts    atomic.Uint64
	GCVersions   atomic.Uint64
	// EpochBumps counts configuration changes installed on this member
	// (promotions, group re-formations); WrongEpochRejects counts
	// requests and stream records turned away by the epoch/lease
	// discipline — a nonzero value after a failover is the split-brain
	// prevention working, a steadily climbing one means a stale client
	// or deposed primary keeps knocking.
	EpochBumps        atomic.Uint64
	WrongEpochRejects atomic.Uint64
	// Checkpoints counts write-ahead-log rotations onto a state snapshot
	// (on a store without a log, whose checkpoint is the truncation,
	// tail truncations); LogRecordsTruncated the records cut from the
	// retained tail, with or without a rotation. CheckpointFailures
	// counts WAL rotations that failed — the in-memory log bound still
	// holds (truncation proceeds regardless), but restart-replay cost is
	// no longer bounded and the disk needs attention. SnapshotsServed counts
	// snapshots this store's member senders pushed to backups, SnapshotsInstalled
	// snapshots this member installed in place of a full-history
	// replay.
	Checkpoints         atomic.Uint64
	CheckpointFailures  atomic.Uint64
	LogRecordsTruncated atomic.Uint64
	SnapshotsServed     atomic.Uint64
	SnapshotsInstalled  atomic.Uint64
	// MirrorBatches counts group-commit batch RPCs that carried records
	// to a backup (probes and heartbeats that carried none are left out);
	// MirrorBatchRecords the stream records they carried, so
	// MirrorBatchRecords/MirrorBatches is the achieved batch depth.
	// WALSyncs counts write-ahead-log fsyncs on the record path (group
	// commit amortizes them: WALSyncs/(Commits+FastCommits) < 1 under
	// concurrent load). WALFailures counts batched WAL appends that
	// failed — with LogSync the affected committers saw the error; off
	// it, durability of those records silently degraded and the disk
	// needs attention.
	MirrorBatches      atomic.Uint64
	MirrorBatchRecords atomic.Uint64
	WALSyncs           atomic.Uint64
	WALFailures        atomic.Uint64
	// WrongSlotRejects counts client requests refused because their
	// OID's route belongs to another group: a client configured with
	// another cluster's layout.
	WrongSlotRejects atomic.Uint64
}

// StatsSnapshot is a plain copy of the counters.
type StatsSnapshot struct {
	Reads, ReadWaits, Prepares, Commits, FastCommits, Aborts, OrphanAborts, Conflicts, GCVersions uint64
	EpochBumps, WrongEpochRejects                                                                 uint64
	Checkpoints, CheckpointFailures, LogRecordsTruncated, SnapshotsServed, SnapshotsInstalled     uint64
	MirrorBatches, MirrorBatchRecords, WALSyncs, WALFailures                                      uint64
	WrongSlotRejects                                                                              uint64
}

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() StatsSnapshot {
	return StatsSnapshot{
		Reads:        s.stats.Reads.Load(),
		ReadWaits:    s.stats.ReadWaits.Load(),
		Prepares:     s.stats.Prepares.Load(),
		Commits:      s.stats.Commits.Load(),
		FastCommits:  s.stats.FastCommits.Load(),
		Aborts:       s.stats.Aborts.Load(),
		OrphanAborts: s.stats.OrphanAborts.Load(),
		Conflicts:    s.stats.Conflicts.Load(),
		GCVersions:   s.stats.GCVersions.Load(),

		EpochBumps:        s.stats.EpochBumps.Load(),
		WrongEpochRejects: s.stats.WrongEpochRejects.Load(),

		Checkpoints:         s.stats.Checkpoints.Load(),
		CheckpointFailures:  s.stats.CheckpointFailures.Load(),
		LogRecordsTruncated: s.stats.LogRecordsTruncated.Load(),
		SnapshotsServed:     s.stats.SnapshotsServed.Load(),
		SnapshotsInstalled:  s.stats.SnapshotsInstalled.Load(),

		MirrorBatches:      s.stats.MirrorBatches.Load(),
		MirrorBatchRecords: s.stats.MirrorBatchRecords.Load(),
		WALSyncs:           s.stats.WALSyncs.Load(),
		WALFailures:        s.stats.WALFailures.Load(),

		WrongSlotRejects: s.stats.WrongSlotRejects.Load(),
	}
}
