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
	// advances logBase; a backup behind logBase rejoins by state
	// transfer (snapshot, then the mirror) instead of record replay.
	commitLog []kv.ReplRecord
	// logBase is the sequence number of commitLog[0] (records below it
	// were truncated at the last checkpoint).
	logBase uint64
	// commitLogBytes is the estimated wire size of the retained log,
	// maintained incrementally for the logMaxBytes bound.
	commitLogBytes int
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
	// are queued here and a flusher goroutine batches them into mirror
	// RPCs and WAL appends; committers wait on its durability watermark
	// (see pipeline.go).
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
	// clocks. Lock order: repMu (and txMu) before epochMu; epochMu
	// holders never take another store mutex.
	epochMu sync.Mutex
	// epoch is the group's configuration number. A store is born at
	// epoch 1 as the sole member of its own group, so it is never zero.
	epoch uint64
	// epochMembers is the current membership, acting primary first.
	epochMembers []string
	// self is this member's advertised address (Server.Listen sets it);
	// the role follows from its position in epochMembers.
	self string
	// memberLease is, on a primary, the end of its authority as granted
	// by each backup member (keyed by the member's address): each mirror
	// or lease-renewal ack from that member extends its entry to
	// send-time + LeaseDuration. The primary serves only while a
	// MAJORITY of the group believes in it — its own vote plus
	// unexpired grants from at least len(epochMembers)/2 backups (the
	// quorum lease; a pair reduces to the old rule, one backup grant).
	// grantUntil is, on a backup, the matching promise: no promotion is
	// accepted before it. Each entry is measured from before the
	// renewal was sent and grantUntil from after it was received, so
	// grantUntil >= the granted entry always — the primary stops
	// serving before enough backups may vote it out.
	memberLease map[string]time.Time
	grantUntil  time.Time
	// promoting freezes the grant clock: once a promotion has begun,
	// no mirror record or lease renewal is accepted (and therefore no
	// ack can extend the old primary's authority), so the grant-expiry
	// wait cannot be re-armed between the wait and the epoch install.
	promoting bool

	// snapMu guards the state-transfer sessions: encoded snapshots being
	// served chunk-by-chunk to peers (see ServeSnapshotChunk),
	// plus the single-flight registry of captures in progress (keyed by
	// stream head; the channel closes when that capture's session is
	// registered). It nests inside nothing — holders take no other
	// store mutex.
	snapMu        sync.Mutex
	snapSessions  map[uint64]*snapSession
	snapLastID    uint64
	snapCapturing map[uint64]chan struct{}

	// dirMu guards the slot directory: the versioned slot→group map
	// this store checks client requests against (see "Slot migration
	// and the directory" in the package comment), plus this store's own
	// group index within it. dirMu is the INNERMOST store mutex — the
	// write-path fence check takes it while holding repMu (so a
	// directory install and a record emission are totally ordered), and
	// dirMu holders take no other mutex.
	dirMu sync.Mutex
	// dir is the installed directory. A store is born holding the
	// version-0 identity directory — one route, owned by its own group —
	// which any directory the cluster publishes supersedes.
	dir *kv.Directory
	// dirGroup is the index in dir.Groups of the group this store
	// belongs to; dir.Routes entries equal to it are the routes this
	// store serves.
	dirGroup uint32
	// routeLoad counts client operations per directory route — the
	// rebalancer's donor-selection signal, sized len(dir.Routes).
	routeLoad []atomic.Uint64

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
		// SetSelf once it has an address), its stream starting in epoch 1
		// and its directory the one-route identity map.
		epoch:        1,
		streamEpoch:  1,
		epochMembers: []string{""},
		dir:          kv.IdentityDirectory(1),
		routeLoad:    make([]atomic.Uint64, 1),

		snapSessions:  make(map[uint64]*snapSession),
		snapCapturing: make(map[uint64]chan struct{}),
	}
	for i := range s.shard {
		s.shard[i].objs = make(map[kv.OID]*object)
	}
	s.initPipe()
	return s
}

// Clock returns the store's hybrid logical clock.
func (s *Store) Clock() *clock.HLC { return s.clock }
