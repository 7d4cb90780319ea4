package kvserver

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// Store is the storage engine of one server. It is safe for concurrent
// use and may also be embedded in-process (the centralized-SQL baseline
// does this).
type Store struct {
	cfg   Config
	clock *clock.HLC
	shard [numShards]shard
	// streamTS is the highest commit timestamp among the records applied
	// so far: the clock version GC runs on (see retentionHorizon). It is
	// advanced only where a version is installed, under repMu, and
	// re-derived from the data by a snapshot install; atomic because the
	// tombstone sweep reads it without repMu.
	streamTS atomic.Uint64
	// stateBytes estimates the encoded size of every stored version —
	// what a checkpoint rotation would write — kept where versions are
	// installed, trimmed and swept, so the rotation policy never needs a
	// pass over the state to consult it.
	stateBytes atomic.Int64

	// txMu guards the prepared-transaction table and the decided-
	// transaction table (with its FIFO eviction queue).
	txMu     sync.Mutex
	txs      map[uint64]*txRecord
	decided  map[uint64]decision
	decidedQ []decidedEntry

	// wal is the write-ahead log, nil without one. It changes under
	// repMu and pipe.mu, and is read under either.
	wal *wal

	// repMu orders the replication stream: sequence assignment, the
	// retained-tail append, and the application of each record's effects
	// all happen under it, so
	// stream order, log order, and per-object version order agree on
	// every replica. Lock order is repMu before txMu, the shard mutexes
	// and pipe.mu (see the package doc).
	repMu sync.Mutex
	// repSeq is the next sequence number: the number of stream records
	// (commits, prepares, decisions) this store has applied, natively
	// or replicated.
	repSeq uint64
	// commitLog holds the stream's retained tail: commitLog[i] is the
	// record at sequence logBase+i. It is the one copy of the stream the
	// store keeps: the write-ahead log's writers and the member senders
	// read it at their cursors. A checkpoint truncates the log and
	// advances logBase; a backup behind logBase is pushed a snapshot,
	// then the records from its position, instead of record replay. The
	// tail and logBase change under repMu and pipe.mu, and are read
	// under either.
	commitLog []kv.ReplRecord
	// logBase is the sequence number of commitLog[0] (records below it
	// were truncated at the last checkpoint).
	logBase uint64
	// commitLogBytes is the estimated wire size of the retained log,
	// maintained incrementally for the logMaxBytes bound.
	commitLogBytes int
	// replica is this member's configuration and its stream's acceptance
	// state: the backup's side of the replication protocol (epoch.go). Its
	// configuration is published as view. Guarded by repMu.
	replica replicaCore
	// pushed holds the bytes of the snapshot a primary is pushing to this
	// backup, as far as replica has accepted its chunks. Guarded by repMu.
	pushed []byte

	// pipe is the group-commit replication pipeline: the log's cursor,
	// the member senders, and the durability watermark committers wait
	// on (see pipeline.go).
	pipe replPipe
	// ckptBusy single-flights asynchronous checkpoint rotations: while
	// one is encoding/rotating off-lock, further policy triggers only
	// truncate in memory (the bound holds; the WAL catches up at the
	// next checkpoint).
	ckptBusy atomic.Bool
	// walTailBytes estimates the record bytes the write-ahead log holds
	// after its snapshot prefix: appendLocked adds each record's size, a
	// rotation that succeeds subtracts what its snapshot covered. The
	// policy rotates only once this reaches stateBytes (see
	// maybeCheckpointSlackLocked). It counts on a store without a log
	// too, where nothing reads it: OpenStore replays the file before it
	// attaches it.
	walTailBytes atomic.Int64

	// view is the configuration in force as the client path reads it,
	// with no lock (CheckClientOp, Epoch, Members): replica's, republished
	// whole whenever it changes, with the lease the primary's core counts
	// under it.
	view atomic.Pointer[groupView]

	// group is the index of the group this store serves, of groups
	// groups (SetGroup). Both are set before the store serves and never
	// change; a store born serves every slot, as the one group of its
	// cluster.
	group, groups int

	stats Stats
}

// NewStore returns an empty store using hlc for timestamps. A nil hlc
// allocates a fresh clock.
func NewStore(hlc *clock.HLC, cfg Config) *Store {
	if hlc == nil {
		hlc = clock.New()
	}
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		clock:   hlc,
		txs:     make(map[uint64]*txRecord),
		decided: make(map[uint64]decision),
		replica: newReplicaCore(cfg.LeaseDuration),
	}
	for i := range s.shard {
		s.shard[i].objs = make(map[kv.OID]*object)
	}
	s.initPipe()
	s.publishLocked()
	return s
}

// OpenStore builds a store from cfg, replaying the write-ahead log when
// cfg.LogPath is set: the snapshot checkpoint frame (if the log was
// ever rotated) is installed first, then the record tail on top of it.
// Subsequent stream records append to the same log. Prepares in the
// log whose decision never made it are left staged in the prepared-
// transaction table — a retried coordinator decision still lands, and
// SweepOrphans reaps them if none comes. A Config with a negative value
// is refused.
func OpenStore(hlc *clock.HLC, cfg Config) (*Store, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	s := NewStore(hlc, cfg)
	if cfg.LogPath == "" {
		return s, nil
	}
	snapEnc, recs, err := replayWAL(cfg.LogPath)
	if err != nil {
		return nil, err
	}
	if snapEnc != nil {
		sn, err := decodeSnapshot(snapEnc)
		if err != nil {
			// A checkpoint frame that passed its checksum but does not
			// decode is a layout incompatibility, not a torn tail: every
			// record in the file builds on the snapshot, so "recover what
			// parses" would be an empty store wearing a real log's name.
			return nil, fmt.Errorf("kvserver: log %s checkpoint snapshot: %w", cfg.LogPath, err)
		}
		s.repMu.Lock()
		err = s.installSnapshotLocked(sn)
		s.repMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("kvserver: log %s checkpoint snapshot: %w", cfg.LogPath, err)
		}
	}
	for _, rec := range recs {
		if err := s.applyReplicated(rec); err != nil {
			// A semantically inconsistent record (e.g. a decision whose
			// prepare was lost to a failed best-effort append on a
			// backup) ends the usable log, like a torn tail: recover
			// the prefix rather than refusing to start.
			break
		}
	}
	w, err := openWAL(cfg.LogPath, cfg.LogSync)
	if err != nil {
		return nil, err
	}
	s.repMu.Lock()
	s.pipe.mu.Lock()
	// Replayed records are already on disk; the log's cursor starts at
	// the head.
	s.wal = w
	s.pipe.walCursor = s.repSeq
	s.pipe.mu.Unlock()
	s.repMu.Unlock()
	return s, nil
}

// Clock returns the store's hybrid logical clock.
func (s *Store) Clock() *clock.HLC { return s.clock }

// groupView is the configuration in force as the client path reads it:
// published whole (publishLocked) and never modified, but for the lease.
type groupView struct {
	epoch   uint64
	members []string
	role    string
	since   time.Time // when epoch came into force (replicaCore.since)
	// lease is, on a primary, the end of its authority under epoch
	// (replCore.leaseFor), as monotonic nanoseconds after monoBase: stored
	// on every change without allocating.
	lease atomic.Int64
}

// monoBase is the origin of groupView.lease.
var monoBase = time.Now()

func (v *groupView) setLease(until time.Time) { v.lease.Store(int64(until.Sub(monoBase))) }

// leaseValid reports whether the member holds the authority a lease
// confers: sole members and non-primaries do (their authority questions
// are answered by role), and a multi-member primary only until its lease
// runs out.
func (v *groupView) leaseValid() bool {
	return len(v.members) <= 1 || v.role != RolePrimary || int64(time.Since(monoBase)) < v.lease.Load()
}

// publishLocked publishes replica's configuration as the view, with the
// lease the primary's core holds under its epoch (none unless the core
// installed it), under pipe.mu, where later leases are stored into it
// (carryOutLocked). Caller holds repMu, or owns the store alone.
func (s *Store) publishLocked() {
	c := &s.replica
	v := &groupView{epoch: c.epoch, members: slices.Clone(c.members), role: c.role(), since: c.since}
	s.pipe.mu.Lock()
	until, _ := s.pipe.core.leaseFor(v.epoch)
	v.setLease(until)
	s.view.Store(v)
	s.pipe.mu.Unlock()
}

// SetSelf records this member's advertised address; the epoch role
// (primary / backup / removed) follows from its position in the
// current membership, where it keeps its place under the new name — a
// fresh store stays the sole primary of its own group. Server.Listen
// calls it with the bound address.
func (s *Store) SetSelf(addr string) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.replica.rename(addr)
	s.publishLocked()
}

// Epoch returns the store's current replication-group epoch.
func (s *Store) Epoch() uint64 { return s.view.Load().epoch }

// Members returns a copy of the current membership, primary first.
func (s *Store) Members() []string { return slices.Clone(s.view.Load().members) }

// Role reports this member's role under the current epoch.
func (s *Store) Role() string { return s.view.Load().role }

// LeaseValid reports whether this member currently holds the authority
// a lease confers (groupView.leaseValid).
func (s *Store) LeaseValid() bool { return s.view.Load().leaseValid() }

// GrantExpiry returns when the lease this member last granted runs
// out; a non-forced promotion must wait until then, which is what
// guarantees the deposed primary stopped serving first.
func (s *Store) GrantExpiry() time.Time {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.replica.grant
}

// BeginPromotion freezes this member's grant clock: from here until
// the next epoch installs, every mirror batch is refused, so no
// in-flight ack can extend the old primary's authority past the grant
// expiry the promotion waits out.
func (s *Store) BeginPromotion() {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.replica.beginPromotion()
}

// CheckClientOp gates a client operation (read or write) behind the
// epoch discipline: only the current epoch's primary serves, only
// while its lease is valid, and only for requests stamped with the
// current epoch (or 0, a client that has not yet learned its group's
// epoch and will from the response's piggyback). Every rejection is a
// *WrongEpochError carrying the current epoch and membership, and
// guarantees the operation was not executed. A lost quorum lease
// rejects like a wrong role: a majority may already have promoted a
// successor, and serving anything — even a read — could contradict it.
func (s *Store) CheckClientOp(reqEpoch uint64) error {
	v := s.view.Load()
	if v.role != RolePrimary || reqEpoch != 0 && reqEpoch != v.epoch || !v.leaseValid() {
		s.stats.WrongEpochRejects.Add(1)
		return &kv.WrongEpochError{Epoch: v.epoch, Members: slices.Clone(v.members)}
	}
	return nil
}
