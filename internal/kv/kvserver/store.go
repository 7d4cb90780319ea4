package kvserver

import (
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

	wal *wal

	// repMu orders the replication stream: sequence assignment, the
	// retained-tail append, the hand-off to the sinks' queues, and the
	// application of each record's effects all happen under it, so
	// stream order, log order, and per-object version order agree on
	// every replica. Lock order is repMu before shard mutexes.
	repMu sync.Mutex
	// repSeq is the next sequence number: the number of stream records
	// (commits, prepares, decisions) this store has applied, natively
	// or replicated.
	repSeq uint64
	// commitLog holds the stream's retained tail: commitLog[i] is the
	// record at sequence logBase+i. A checkpoint truncates the log and
	// advances logBase; a backup behind logBase is pushed a snapshot,
	// then the records from its position, instead of record replay.
	commitLog []kv.ReplRecord
	// logBase is the sequence number of commitLog[0] (records below it
	// were truncated at the last checkpoint).
	logBase uint64
	// commitLogBytes is the estimated wire size of the retained log,
	// maintained incrementally for the logMaxBytes bound.
	commitLogBytes int
	// pushed is the snapshot a primary is pushing to this backup, as far
	// as its chunks have arrived, and pushFrom the seq it covers (see
	// acceptChunkLocked). Guarded by repMu.
	pushed   []byte
	pushFrom uint64
	// streamEpoch is the epoch installed BY THE STREAM at or below the
	// current head: it advances only when a RecEpoch record is emitted
	// or applied at its position (or a snapshot install seeds it), never
	// by an out-of-band AdoptEpoch. That distinction is the splice
	// guard: a deposed primary adopts the successor epoch from a
	// rejection, but its STREAM still ends in the old epoch's records —
	// so comparing incoming record stamps against streamEpoch (not
	// epoch) still exposes the divergence. Every record applied at the
	// head must be stamped with exactly streamEpoch; any other stamp
	// means the record belongs to a history this replica never
	// installed, rejected with kv.ErrDiverged. Guarded by repMu.
	streamEpoch uint64

	// pipe is the group-commit replication pipeline: emitted records
	// are queued here for the WAL flusher and the member senders, and
	// committers wait on its durability watermark (see pipeline.go).
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

	// epochMu guards the replication-group configuration and lease
	// clocks. Lock order: repMu, txMu and pipe.mu before epochMu;
	// epochMu holders never take another store mutex.
	epochMu sync.Mutex
	// epoch is the group's configuration number. A store is born at
	// epoch 1 as the sole member of its own group, so it is never zero.
	epoch uint64
	// epochMembers is the current membership, acting primary first.
	epochMembers []string
	// self is this member's advertised address (Server.Listen sets it);
	// the role follows from its position in epochMembers.
	self string
	// leaseUntil is, on a primary, the end of its authority: the
	// majority-th latest grant among the backups of the membership it
	// installed (see replCore; each accepted mirror batch, heartbeats
	// included, grants send-time + LeaseDuration). grantUntil is, on a
	// backup, the matching promise: no promotion is accepted before it.
	// A grant is measured from before the batch was sent and grantUntil
	// from after it was received, so grantUntil >= the grant always —
	// the primary stops serving before enough backups may vote it out.
	leaseUntil time.Time
	grantUntil time.Time
	// promoting freezes the grant clock: once a promotion has begun,
	// no mirror batch is accepted (and therefore no
	// ack can extend the old primary's authority), so the grant-expiry
	// wait cannot be re-armed between the wait and the epoch install.
	promoting bool

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
	s := &Store{
		cfg:     cfg.withDefaults(),
		clock:   hlc,
		txs:     make(map[uint64]*txRecord),
		decided: make(map[uint64]decision),
		// Born the sole primary of its own one-member group (named by
		// SetSelf once it has an address), its stream starting in epoch 1.
		epoch:        1,
		streamEpoch:  1,
		epochMembers: []string{""},
	}
	for i := range s.shard {
		s.shard[i].objs = make(map[kv.OID]*object)
	}
	s.initPipe()
	return s
}

// Clock returns the store's hybrid logical clock.
func (s *Store) Clock() *clock.HLC { return s.clock }
