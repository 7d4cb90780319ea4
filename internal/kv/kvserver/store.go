// Package kvserver implements a Yesquel storage server: a multi-version
// key-value store with snapshot-isolation transactions (prepare /
// commit / abort participant logic) exposed over RPC.
//
// Concurrency control follows the paper's description of the lowest
// layer: multi-version concurrency control with versions managed "at
// the layer that stores the actual data". Writers stage operations
// under per-object write locks during prepare; readers never block
// writers; a reader blocks only in the narrow window where a prepared
// transaction could commit below the reader's snapshot (the Clock-SI
// read rule), which lasts one commit round trip.
//
// # Replication
//
// Fault tolerance lives in this layer, as the paper prescribes: the
// SQL layer above is stateless and the client library fails over, so
// only the storage server needs to replicate. There is one kind of
// store. Every store is a deterministic function of a prefix of its
// replication STREAM: every commit, prepare, decision and epoch change
// is a record with a sequence number, emitted and applied in one
// critical section, and every store retains a bounded tail of that
// stream in memory. What differs between deployments is only where the
// records also go — the SINKS: a write-ahead log (Config.LogPath) and
// attached members (backups). A store with neither pays a slice append
// per record and acknowledges at once; it can still be snapshotted,
// take a backup mid-life, or be the source of a slot migration, because
// its visible state always equals a stream position.
//
// Every server is a member of a replication group — a fresh store is
// the sole primary of its own one-member group, and Server.FormGroup
// attaches backups and installs the larger membership. Every stream
// record is mirrored to the attached members, and the client's
// acknowledgment is withheld until a majority of the group holds the
// record, so a failover never loses an acknowledged write. Backups
// apply the stream in strict sequence order; a gap (the backup missed
// records, e.g. it restarted) makes mirroring fail loudly instead of
// silently diverging, and the backup re-joins by streaming the missed
// records from the primary's retained tail (Server.SyncFrom /
// MethodSync, the same records the write-ahead log holds) or, when the
// tail no longer reaches back that far, by state transfer.
//
// # Group commit and pipelined mirroring
//
// Emission and the durability wait are decoupled (pipeline.go). Every
// commit, prepare and abort has one shape: emit the record, apply its
// effects, record the decision — one repMu critical section — then wait
// on the durability watermark outside it. What happens under repMu, on
// every store — the invariants every consumer of the stream relies on:
//
//   - sequence assignment and the epoch stamp;
//   - the retained-tail append;
//   - the application of the record's effects (commit versions,
//     staged prepares, epoch installs) — so visible state always
//     equals the stream position when repMu is free, which is what
//     lets snapshot captures, resyncs and route captures claim exact
//     coverage.
//
// What never happens under repMu: the mirror RPC and the
// write-ahead-log write/fsync. Emitted records are queued to the
// sinks: each attached member's sender goroutine coalesces whatever
// accumulated — at any concurrency, everything emitted during the
// previous batch's round trip — into ONE MirrorBatchReq RPC (one round
// trip, one lease extension, one backup-side contiguous apply under one
// stream-lock acquisition), and the WAL flusher into ONE batched append
// (one buffer, one lock, one write, one fsync).
// Config.MirrorBatchMaxRecords caps a batch; Config.GroupCommitInterval
// optionally lets one build.
//
// The WATERMARK ACK RULE: a commit, prepare, or epoch change is
// acknowledged only once its sequence number clears the durability
// watermark — covered by a quorum of member acknowledgments (when
// members are attached) AND written to the WAL (when there is one;
// fsynced when LogSync is set). With no sink the watermark is the
// stream head and the wait returns at once. A batch that fails (backup
// dead, gap, divergence, epoch reject) fails every waiter whose record
// rode in it: commits surface kv.ErrUncertain (the record is in the local
// stream, its effects visible; whether it survives a failover depends
// on whether the batch landed — exactly a lost ack's contract), and
// prepares vote no and abort, emitting the owed decision record.
// Waiters never succeed on a record the backup did not apply, so "an
// acked write survives primary failure" holds unchanged while N
// concurrent writers share each round trip and fsync. Abort decisions
// remain fire-and-forget. Throughput under concurrency scales with the
// batch depth instead of serializing on one round-trip-plus-fsync per
// record (BenchmarkReplicationConcurrent).
//
// One tradeoff is deliberate and worth stating precisely: effects
// become VISIBLE at emission (under repMu), before the batch is
// acknowledged or fsynced. The guarantee is therefore two-tiered.
// VISIBLE-AT-EMISSION: a default read on the primary observes every
// record emitted so far — including commits still awaiting their
// quorum ack — so it can observe a write whose writer later gets
// ErrUncertain and which a failover then erases (the classic
// group-commit visibility window; it exists only while the primary is
// alive but failing its mirror). DURABLE-AT-WATERMARK: everything at
// or below the durability watermark is held by a majority and fsynced
// when LogSync demands it, so no failover can erase it. The DURABLE
// READ mode (ReadReq.Durable on the wire, kvclient's DurableReads
// option) is what closes the window: the server blocks such a read
// until the durability frontier passes its snapshot (Store.WaitDurable),
// so the response reflects quorum-durable state only. Default primary
// reads keep the window; follower reads never had it — a backup only
// serves at or below its frontier (see the follower-reads section).
//
// # Two-phase commit outcome recovery
//
// The replication stream carries three record kinds (kv.ReplRecord),
// not just whole commits, so in-flight two-phase transactions survive
// a primary failure:
//
//   - RecCommit: a whole committed transaction (one-shot fast commits).
//   - RecPrepare: a participant's phase-one vote — the staged ops and
//     write locks, replicated before the yes vote is returned. A
//     promoted backup therefore reconstructs the prepared-transaction
//     table instead of starting empty, and a MethodSync resync carries
//     prepared state to a re-formed backup.
//   - RecDecide: the phase-two outcome (commit at a timestamp, or
//     abort) for a previously replicated prepare.
//
// Decisions are remembered in a bounded, time-evicted decided-
// transaction table, making Commit/Abort idempotent: a coordinator
// whose phase-two acknowledgment was lost re-sends the decision — to
// the same server or to a promoted backup — and gets the recorded
// outcome instead of "unknown transaction". Prepares whose decision
// never arrives are handled by SweepOrphans under the epoch rules
// below; a decided transaction is never swept.
//
// # Epochs and leases
//
// A replication group carries a monotonically increasing configuration
// **epoch** with a membership list (acting primary first). Every
// membership change — promoting the backup after a failure, re-forming
// the pair with a fresh member — is an explicit epoch bump, recorded
// as a RecEpoch record in the same totally ordered replication stream
// as data (so it is mirrored, resynced, and WAL-persisted like any
// commit, and a replayed or resynced member finishes at the epoch the
// stream left it at). Every other stream record is stamped with the
// epoch in effect when it was emitted, and every client request is
// stamped with the epoch the client believes current.
//
// The serving rules (Store.CheckClientOp, enforced at the RPC
// boundary):
//
//   - Only the current epoch's primary serves client operations; a
//     backup answers every data request with a typed kv.ErrWrongEpoch
//     redirect naming the current epoch and membership. The PR 1
//     failure mode — a client blip sending retries to the backup while
//     the primary lives — is therefore prevented, not detected: the
//     stray write never lands.
//   - A multi-member primary serves only while it holds a **lease**:
//     every mirror ack and MethodLease renewal from the backup extends
//     its authority to send-time + Config.LeaseDuration, and the
//     backup symmetrically promises (its grant, recorded atomically
//     with accepting the record or renewal and measured from receipt,
//     so the grant always outlasts the authority) not to accept a
//     promotion before the grant expires. A promotion therefore waits
//     out the grant (Server.Promote without force), which guarantees a
//     partitioned stale primary stopped acknowledging reads AND writes
//     before the new epoch acknowledges its first one. Orchestrators
//     that killed the primary themselves may force-promote — fencing
//     by certainty instead of clocks. A sole-member primary needs no
//     lease (no one else could be promoted).
//   - A live mirror record stamped with an older epoch than the
//     replica's is rejected (the sender is a deposed primary); the
//     rejection carries the new configuration, deposing it gracefully.
//   - An ErrWrongEpoch rejection guarantees the request was NOT
//     executed, so clients retry it safely after adopting the carried
//     membership — including non-idempotent prepares and commits.
//
// Epochs also bound the orphan sweep: SweepOrphans may TTL-abort a
// prepare only when the epoch under which it was accepted is provably
// superseded (and the TTL, restarted at the bump, has given the
// coordinator a redirect window). A prepare whose epoch is still
// current is never unilaterally aborted — a participant that times out
// after its coordinator decided commit would break atomicity; within a
// stable epoch 2PC blocks, safely, and an operator can bump the epoch
// to reap a provably dead coordinator's locks. This holds for every
// store, a sole-member group included.
//
// # Quorum groups
//
// The mirror pair generalizes to replication factors above 2: a
// primary fans each batch out to N backup members in parallel (one
// member loop, queue, and connection per member — pipeline.go), and
// the durability watermark becomes "a MAJORITY of members have
// acknowledged the sequence number, and it is fsynced locally when
// LogSync demands it". With rf = 3 that means one backup ack
// suffices, so a minority of backups being down, slow, or broken
// stalls nothing: writes keep flowing at the speed of the fastest
// majority, and a broken member's past acks still count toward
// watermarks they already covered. Only when fewer live members
// remain than a majority requires does the pipeline fail fast,
// surfacing kv.ErrUncertain to in-flight commits instead of hanging.
//
// The lease generalizes the same way: a multi-member primary serves
// while it holds unexpired grants from a MAJORITY of its backups
// (every member's batch ack and lease renewal is a grant), and a
// promotion without force waits out the grants it observed. The two
// majorities intersect, which is the whole safety argument: any
// acknowledged write lives on at least one member of any electing
// majority, and the member chosen by promotion is the MOST CAUGHT-UP
// live member — the orchestrator freezes every live member
// (BeginPromotion), compares stream heads, promotes the maximum, and
// re-joins the rest as backups of the winner (cluster.promote). A
// member whose head is behind the winner's syncs the missing tail; a
// member whose history DIVERGED — it holds records at positions the
// winner's stream stamped with a different epoch, the classic
// isolated-old-primary-with-stranded-writes case — is rejected with
// kv.ErrDiverged at every splice point and re-joins by state transfer
// only:
//
//   - the sync source compares the requester's stream epoch against
//     the epoch its own log held at the requested position;
//   - every applied record's epoch stamp must equal the epoch the
//     replica's stream installed at that position (the per-record
//     splice guard), so stranded old-epoch records can never be
//     overlaid by a successor's re-stamped history, nor vice versa;
//   - a record arriving BELOW the replica's head is acknowledged as a
//     duplicate only if the retained log proves identity (same kind,
//     epoch, transaction, timestamp at that position) — the
//     attach-before-sync overlap ships some records twice by design,
//     and content, not timing, is what tells a benign duplicate from
//     a split brain.
//
// # Follower reads and the durability watermark
//
// Backups serve snapshot reads, so read capacity scales with the
// replication factor instead of idling at 1/rf of it. The machinery
// is the durability FRONTIER: the highest commit timestamp t such
// that every committed version at or below t is applied locally AND
// quorum-durable. The pipeline tracks the prefix-max commit timestamp
// per stream position (pipeline.go's tsMark) and publishes the
// frontier as the durable prefix advances — on a primary from its own
// quorum and WAL watermarks, on a backup from the watermark the
// primary piggybacks on every mirror batch and lease renewal. A
// backup never treats its OWN stream position as durable: records it
// holds may have been acked by no one else, and a replica restarted
// from its WAL cannot know how far the group's quorum reached — its
// frontier is frozen until the current primary vouches afresh.
//
// A backup serves Read/ReadPart when the request's snapshot is at or
// below its frontier (Store.CheckClientRead); above it — or for any
// write — it answers with the usual ErrWrongEpoch redirect, so the
// client falls back to the primary instead of reading maybe-durable
// state (no silently stale data). Safety is two rules composed:
// (1) every commit with ts <= frontier is durable, by construction of
// the marks; (2) no commit with ts <= frontier can arrive later,
// because proposed timestamps are drawn from a clock that has
// observed every earlier record's timestamp, and a two-phase decision
// whose prepare sits below the watermark has that prepare's locks
// applied on the backup, where the Clock-SI read rule makes readers
// at or above the proposed timestamp wait the decision out. A
// follower read is therefore exactly a primary snapshot read at the
// same timestamp — minus the visibility window. kvclient pins each
// client's eligible read-only snapshot ops to one backup (staggered
// across clients, rotating on failure) and learns each group's
// frontier for free from the Ack piggyback (including the idle
// heartbeat ping) and from fast-commit and read responses; read-only
// transactions snapshot at the frontier a backup last REPORTED, so in
// steady state a follower read never arrives ahead of the backup's
// own watermark copy.
//
// Batched reads (MethodReadBatch) ride these rules unchanged: the
// batch carries ONE snapshot for its N object reads, so the epoch and
// frontier admission checks and the optional durable-read wait run
// once for the whole batch, and a replica that may serve one of the
// reads may serve them all. The per-item reads then take their
// per-shard locks exactly as N single Read/ReadPart calls would —
// including the Clock-SI wait on prepared transactions — so a batch
// answers precisely what N single reads at the same snapshot would
// have answered, in one round trip; the response piggybacks the
// serving replica's frontier like any read response.
//
// # Log truncation and snapshots
//
// The stream tail every store retains — what MethodSync resyncs and
// migration tails are served from — is bounded: by
// Config.ReplicationLogMaxRecords and/or MaxBytes, or, when neither is
// set, by the built-in defaultLogMaxBytes. When the tail exceeds its
// bound the store CHECKPOINTS, in one sequence (checkpointLocked):
// capture a consistent snapshot of its full state — every object's
// version history with conflict metadata, the prepared- and decided-
// transaction tables, the epoch and membership — tagged with the stream
// sequence number it covers; truncate the tail to its newest half-cap;
// and, when there is a write-ahead log, rotate it onto that snapshot (a
// restart replays snapshot + tail instead of the full history, and the
// file stays bounded by the checkpoint cadence). A store without a log
// only truncates. A primary enforces the bound inline in its emit-and-
// apply paths, so its tail never exceeds the cap. A live-mirror backup
// defers routine truncation off the ack path (an O(state) checkpoint
// while the primary synchronously awaits the mirror ack could outlast
// the mirror timeout): a one-second server ticker bounds its overshoot
// to about a second of writes, with a hard inline ceiling at four
// times the cap so memory never rests on the ticker alone.
//
// Consistency of the capture comes from the stream lock: every write
// path, on every store, holds repMu across a record's emission AND the
// application of its effects, so a snapshot taken under repMu always
// equals "every record below repSeq applied, none above" — the
// contract a resyncing replica needs. Prepares whose record has not
// entered the stream yet are skipped (their records arrive in the
// tail).
//
// A backup that asks to sync from a position below the truncated log's
// base gets SyncResp.TooOld and falls back to STATE TRANSFER
// (Server.SyncFrom does this automatically): it streams a chunked
// snapshot (MethodSnap), installs it — replacing its own stale state,
// which is a prefix of the source's — and resumes the normal log-tail
// sync from the snapshot's sequence number. This is what makes a
// late-joining or long-dead replica cost the current state's size
// rather than the primary's full write history, and it removes blocker
// (c) for replication factors above 2 (see ROADMAP). A backup that is
// AHEAD of its sync source is rejected with kv.ErrDiverged — an
// irreconcilable history must be re-formed, never papered over.
//
// # Invariants and linting
//
// The rules above lean on conventions no compiler checks, so the repo
// carries its own analyzer suite (internal/lint, run as
// `go run ./cmd/yesqlint ./...`, blocking in CI) that enforces them
// mechanically:
//
//   - repmublock: no blocking operation on a path holding repMu — no
//     channel waits, selects, time.Sleep, RPC calls, or fsyncs.
//     Blocking leaf functions are marked //yesqlint:blocking (e.g.
//     rpc.(*Client).Call, the wal's batched fsync append) and the
//     property propagates through same-package call chains. The few
//     deliberate bounded waits under repMu (the checkpoint drain, the
//     snapshot-install rotation) each carry a //yesqlint:allow with
//     the justification inline.
//   - lockorder: the store's mutexes nest in one global order —
//     repMu, then txMu, then epochMu, then snapMu, then dirMu.
//     Acquiring them in any other order (directly or via a
//     same-package call) is flagged.
//   - errsentinel: errors are classified by errors.Is/errors.As or by
//     the typed RPC code (rpc.AppError.Code, kv.WireErrorCode), never
//     by comparing message text.
//   - wirecodec: hand-rolled Encode/Decode pairs must read fields in
//     the exact order they were written, and every message has one
//     layout: no Decode function may guard a read behind
//     Reader.Remaining.
//   - timerloop: no per-iteration time.After/NewTimer allocation in
//     wait loops; hoist one reusable timer.
//
// Annotations: //yesqlint:blocking marks a leaf that blocks;
// //yesqlint:allow <analyzer> -- <reason> suppresses one finding (on
// the doc comment for a whole function, or on/above the line).
package kvserver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

const numShards = 64

// Config tunes a Store. Zero values select defaults.
type Config struct {
	// MaxVersions caps the length of a version chain (default 64).
	MaxVersions int
	// RetentionMillis is how long superseded versions stay readable
	// (default 10000). Snapshots older than this may miss versions.
	RetentionMillis uint64
	// LockWaitTimeout bounds how long a read waits for a prepared
	// transaction to resolve (default 2s).
	LockWaitTimeout time.Duration
	// PrepareTTL bounds how long an undecided prepare may hold its
	// write locks once the epoch it was accepted under is superseded
	// (default 60s). SweepOrphans aborts such prepares after the TTL,
	// restarted at the epoch bump (and replicates the abort decision),
	// never one that already received a decision. The TTL must
	// comfortably exceed a coordinator's worst-case time to redirect its
	// phase-two drive to the new configuration.
	PrepareTTL time.Duration
	// DecidedTTL is how long phase-two outcomes stay in the decided-
	// transaction table (default 60s), which makes Commit/Abort
	// idempotent: a retried decision for an already-decided transaction
	// is acknowledged with the recorded outcome instead of rejected.
	DecidedTTL time.Duration
	// LogPath enables the write-ahead log: committed operations are
	// appended there and replayed by OpenStore after a restart. Empty
	// disables durability (pure in-memory server).
	LogPath string
	// LogSync fsyncs the log on every commit. Off, the log is still
	// written in commit order but a host crash can lose the tail.
	LogSync bool
	// ReplicationLogMaxRecords bounds the stream tail every store retains
	// in memory (what MethodSync resyncs and migration tails are served
	// from): when it exceeds this many records the store checkpoints —
	// captures a state snapshot at the stream head, rotates the
	// write-ahead log onto it (if there is one), and truncates the tail —
	// so a backup that falls behind the retained tail catches up by
	// snapshot install (MethodSnap) + tail instead of a full-history
	// replay. 0 = no record bound.
	ReplicationLogMaxRecords int
	// ReplicationLogMaxBytes is the same policy measured in estimated
	// record bytes. Either limit triggers a checkpoint. 0 = no byte bound
	// — unless ReplicationLogMaxRecords is zero too: then the built-in
	// defaultLogMaxBytes applies, so no store's tail is unbounded.
	ReplicationLogMaxBytes int
	// SnapshotChunkBytes sizes MethodSnap transfer chunks (default 1 MiB,
	// comfortably under the wire frame limit). Tests shrink it to force
	// multi-chunk transfers.
	SnapshotChunkBytes int
	// LeaseDuration is how long a primary's authority to serve lasts
	// after its last acknowledgment from the backup (default 2s). Every
	// mirror ack and lease-renewal ack extends the primary's lease; the
	// backup symmetrically promises not to accept a promotion until the
	// grant expires. Shorter leases mean faster failover but less
	// tolerance for mirror-path hiccups. Only meaningful in a group of
	// more than one member.
	LeaseDuration time.Duration
	// MirrorBatchMaxRecords caps how many stream records one mirror
	// batch RPC carries (default 256; batches are also byte-capped
	// below the wire frame limit). Larger batches amortize the round
	// trip further at the cost of per-batch latency under bursts.
	MirrorBatchMaxRecords int
	// GroupCommitInterval is how long the replication pipeline waits
	// after waking before it flushes, letting a batch build (default 0:
	// flush as soon as the flusher is free — a lone writer pays no
	// added latency, and concurrent writers still coalesce into
	// whatever accumulated during the previous batch's round trip).
	GroupCommitInterval time.Duration
	// MirrorSendDelay inserts a fixed wall-clock delay before every
	// mirror batch send, emulating a slow replication link or storage
	// device. Combined with MirrorBatchMaxRecords it turns a group's
	// replication pipeline into a bounded-capacity resource
	// (MaxRecords/Delay records per second per member), which the
	// elastic-sharding drills and benchmarks use to demonstrate
	// capacity scaling on hosts whose core count cannot — on a
	// one-core CI box a purely in-memory pipeline measures CPU, and
	// added groups cannot add CPU. 0 (the default) disables it.
	MirrorSendDelay time.Duration
	// NoFollowerReads disables serving snapshot reads from this store
	// while it is a BACKUP (CheckClientRead then redirects every read
	// to the primary, watermark or not). Off by default: a backup
	// serves reads at or below its durability frontier. The yesqueld
	// -follower-reads=false flag sets it.
	NoFollowerReads bool
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
	if out.PrepareTTL == 0 {
		out.PrepareTTL = 60 * time.Second
	}
	if out.DecidedTTL == 0 {
		out.DecidedTTL = 60 * time.Second
	}
	if out.LeaseDuration == 0 {
		out.LeaseDuration = 2 * time.Second
	}
	if out.SnapshotChunkBytes == 0 {
		out.SnapshotChunkBytes = 1 << 20
	}
	if out.MirrorBatchMaxRecords == 0 {
		out.MirrorBatchMaxRecords = 256
	}
	if out.ReplicationLogMaxRecords == 0 && out.ReplicationLogMaxBytes == 0 {
		out.ReplicationLogMaxBytes = defaultLogMaxBytes
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

// defaultLogMaxBytes bounds the retained stream tail of a store whose
// Config names no bound. It is a memory budget, not a tuning: 64 MiB of
// estimated record bytes is a few percent of the memory a storage server
// is provisioned with, and is minutes of write history at the rates one
// server sustains — ample for a briefly absent backup to rejoin by
// record replay rather than state transfer.
const defaultLogMaxBytes = 64 << 20

// maxGroupCommitInterval caps the configured coalescing delay far
// below the pipeline's durability-wait timeout.
const maxGroupCommitInterval = time.Second

// Stats counts store activity; read with Snapshot. Commits counts
// two-phase (prepare/commit) transactions and FastCommits one-shot
// transactions; the two are disjoint, so Commits+FastCommits is the
// total number of logical commits.
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
	// Checkpoints counts snapshot checkpoints (log truncations + WAL
	// rotations); LogRecordsTruncated the replication-log records they
	// dropped. CheckpointFailures counts WAL rotations that failed —
	// the in-memory log bound still holds (truncation proceeds
	// regardless), but restart-replay cost is no longer bounded and
	// the disk needs attention. SnapshotsServed counts state-transfer
	// snapshots captured for a resyncing peer, SnapshotsInstalled
	// snapshots this member installed in place of a full-history
	// replay.
	Checkpoints         atomic.Uint64
	CheckpointFailures  atomic.Uint64
	LogRecordsTruncated atomic.Uint64
	SnapshotsServed     atomic.Uint64
	SnapshotsInstalled  atomic.Uint64
	// MirrorBatches counts group-commit batch RPCs sent to the backup;
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
	// FollowerReads counts snapshot reads this member served as a
	// backup under the durability-frontier gate (zero on a primary).
	// FollowerReadWaits counts the subset that arrived ahead of this
	// member's watermark copy and parked for the piggyback race to
	// close — a climbing share of FollowerReads means clients outrun
	// the mirror stream. DurableReadWaits counts durable-mode reads
	// that found the frontier below their snapshot and had to wait out
	// the watermark — a climbing value means readers routinely outrun
	// durability and the mirror/fsync path is the read path's
	// bottleneck.
	FollowerReads     atomic.Uint64
	FollowerReadWaits atomic.Uint64
	DurableReadWaits  atomic.Uint64
	// WrongSlotRejects counts requests turned away by the slot-directory
	// fence — a stale client routing to a group that no longer owns the
	// OID's route. A burst during a migration cutover is the fence
	// working; a steadily climbing value means some client never adopts
	// the new directory. MigratedVersions counts object versions this
	// store ingested as a migration DESTINATION (bulk capture plus live
	// tail).
	WrongSlotRejects atomic.Uint64
	MigratedVersions atomic.Uint64
}

// StatsSnapshot is a plain copy of the counters.
type StatsSnapshot struct {
	Reads, ReadWaits, Prepares, Commits, FastCommits, Aborts, OrphanAborts, Conflicts, GCVersions uint64
	EpochBumps, WrongEpochRejects                                                                 uint64
	Checkpoints, CheckpointFailures, LogRecordsTruncated, SnapshotsServed, SnapshotsInstalled     uint64
	MirrorBatches, MirrorBatchRecords, WALSyncs, WALFailures                                      uint64
	FollowerReads, FollowerReadWaits, DurableReadWaits                                            uint64
	WrongSlotRejects, MigratedVersions                                                            uint64
}

type version struct {
	ts  clock.Timestamp
	val *kv.Value // nil = tombstone
	// Conflict metadata: structural commits (full writes, fence
	// changes, range deletes) conflict with every concurrent write;
	// commutative commits record the cell/attr keys they touched and
	// conflict only with overlapping touches.
	structural bool
	touched    map[string]struct{}
}

// classifyOps computes the conflict metadata for a set of ops on one
// object.
func classifyOps(ops []*kv.Op) (structural bool, touched map[string]struct{}) {
	touched = make(map[string]struct{}, len(ops))
	for _, op := range ops {
		key, ok := op.CommutativeTouch()
		if !ok {
			return true, nil
		}
		touched[string(key)] = struct{}{}
	}
	return false, touched
}

type lockState struct {
	txid     uint64
	proposed clock.Timestamp
	ops      []*kv.Op
	done     chan struct{} // closed when the transaction resolves
}

type object struct {
	versions []version // ascending by ts; values are immutable once stored
	lock     *lockState
	// gcFloor is the highest timestamp whose version was garbage-
	// collected; conflict checks for snapshots at or below it must be
	// conservative because the trimmed history is unknown.
	gcFloor clock.Timestamp
}

type shard struct {
	mu   sync.Mutex
	objs map[kv.OID]*object
}

type txRecord struct {
	oids []kv.OID
	// replicated: a RecPrepare record for this transaction is in the
	// replication stream, so the decision (commit or abort) must be
	// replicated too.
	replicated bool
	// epoch is the group epoch under which the prepare was accepted.
	// SweepOrphans may only TTL-abort a prepare whose epoch has been
	// superseded; while it is current the coordinator may still
	// legitimately drive a decided commit.
	epoch uint64
	// preparedAt drives the orphan-prepare TTL. An epoch bump resets it
	// for prepares of older epochs, so a coordinator gets a full TTL
	// after a failover to redirect its decision.
	preparedAt time.Time
}

// decision is a resolved transaction outcome, kept in the decided-
// transaction table for DecidedTTL so retried phase-two requests are
// answered with the recorded outcome instead of "unknown tx".
type decision struct {
	commit   bool
	commitTS clock.Timestamp
	// replSeq is 1 + the stream sequence number of the record that
	// carried this outcome (0 = none). A retried commit is acknowledged
	// only after that record clears the durability watermark: acking a
	// duplicate for a record the backup never applied would break the
	// acked-writes-survive-failover guarantee the first ack refused to
	// break.
	replSeq uint64
}

// decidedMax bounds the decided-transaction table; beyond it the
// oldest entries are evicted early (before their TTL).
const decidedMax = 1 << 16

// Store is the storage engine of one server. It is safe for concurrent
// use and may also be embedded in-process (the centralized-SQL baseline
// does this).
type Store struct {
	cfg   Config
	clock *clock.HLC
	shard [numShards]shard

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
	// advances logBase; resyncs below logBase are served by state
	// transfer (snapshot + tail) instead of record replay.
	commitLog []kv.ReplRecord
	// logBase is the sequence number of commitLog[0] (records below it
	// were truncated at the last checkpoint).
	logBase uint64
	// commitLogBytes is the estimated wire size of the retained log,
	// maintained incrementally for the ReplicationLogMaxBytes policy.
	commitLogBytes int
	// pending buffers replicated records that arrived ahead of repSeq
	// while a resync is filling in the history below them.
	pending   map[uint64]kv.ReplRecord
	resyncing bool
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
	// served chunk-by-chunk to resyncing peers (see ServeSnapshotChunk),
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

// decidedEntry is one slot of the decided table's FIFO eviction queue.
type decidedEntry struct {
	txid uint64
	at   time.Time
}

// ReplSeq returns the next sequence number in the replication stream
// (equivalently: how many commits this store has applied).
func (s *Store) ReplSeq() uint64 {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.repSeq
}

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

// StreamEpoch returns the epoch this store's replication stream had
// installed at its head — unlike Epoch it never reflects an
// out-of-band AdoptEpoch, only RecEpoch records and snapshot installs.
// A resync request carries it so the source can detect a diverged-but-
// behind history (see SyncRecords).
func (s *Store) StreamEpoch() uint64 {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.streamEpoch
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

// leaseValidLocked implements LeaseValid. Caller holds epochMu.
func (s *Store) leaseValidLocked() bool {
	if len(s.epochMembers) <= 1 || s.roleLocked() != RolePrimary {
		return true
	}
	now := time.Now()
	need := len(s.epochMembers) / 2 // backup grants completing a majority with the primary's own vote
	granted := 0
	for _, m := range s.epochMembers[1:] {
		if now.Before(s.memberLease[m]) {
			granted++
		}
	}
	return granted >= need
}

// ExtendLease advances the serving authority granted by one backup
// member to until (never backwards). The caller measures until from
// *before* the renewal request was sent, so that member's matching
// grant always outlasts it.
func (s *Store) ExtendLease(member string, until time.Time) {
	s.epochMu.Lock()
	if s.memberLease == nil {
		s.memberLease = make(map[string]time.Time)
	}
	if until.After(s.memberLease[member]) {
		s.memberLease[member] = until
	}
	s.epochMu.Unlock()
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
// the next epoch installs (or AbandonPromotion), every mirror record
// and lease renewal is refused, so no in-flight ack can extend the old
// primary's authority past the grant expiry the promotion waits out.
func (s *Store) BeginPromotion() {
	s.epochMu.Lock()
	s.promoting = true
	s.epochMu.Unlock()
}

// AbandonPromotion lifts the BeginPromotion freeze without an epoch
// change (the promotion failed); the pair resumes as before.
func (s *Store) AbandonPromotion() {
	s.epochMu.Lock()
	s.promoting = false
	s.epochMu.Unlock()
}

// RenewLeaseGrant is the backup half of MethodLease: it extends the
// grant for a renewal carrying the current epoch, and refuses — with
// the typed redirect — a renewal from another epoch or one arriving
// after a promotion began (granting then would re-arm the lease the
// promotion is waiting out).
func (s *Store) RenewLeaseGrant(reqEpoch uint64) error {
	until := time.Now().Add(s.cfg.LeaseDuration)
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if s.promoting || reqEpoch != s.epoch {
		return s.wrongEpochLocked()
	}
	if until.After(s.grantUntil) {
		s.grantUntil = until
	}
	return nil
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
	return s.checkClientOpLocked(reqEpoch)
}

// checkClientOpLocked implements CheckClientOp. Caller holds epochMu.
func (s *Store) checkClientOpLocked(reqEpoch uint64) error {
	// A lost quorum lease rejects like a wrong role: a majority of the
	// group may already have promoted a successor and be acknowledging
	// writes under a new epoch, and serving anything — even a read —
	// could contradict it.
	if s.roleLocked() != RolePrimary || (reqEpoch != 0 && reqEpoch != s.epoch) || !s.leaseValidLocked() {
		return s.wrongEpochLocked()
	}
	return nil
}

// CheckClientRead gates a snapshot READ behind the epoch discipline,
// relaxed for backups: the primary serves any read under the usual
// CheckClientOp rules, and a BACKUP serves a read whose snapshot is at
// or below its durability frontier — everything such a read can
// observe is applied here and quorum-durable, so the answer is exactly
// what the primary would give, and no failover can erase it. A backup
// needs no lease for this (durable snapshot data is valid forever),
// but the request's epoch must still match: a stale-epoch client is
// redirected so it learns the membership before trusting any replica.
// A read above the frontier is refused with the same typed redirect —
// the client falls back to the primary rather than reading
// maybe-durable state. Writes always go through CheckClientOp.
func (s *Store) CheckClientRead(reqEpoch uint64, snap clock.Timestamp) error {
	s.epochMu.Lock()
	if s.roleLocked() != RoleBackup || s.cfg.NoFollowerReads {
		// Role, epoch and lease are judged under this one acquisition:
		// every read on a primary takes this path.
		defer s.epochMu.Unlock()
		return s.checkClientOpLocked(reqEpoch)
	}
	if reqEpoch != 0 && reqEpoch != s.epoch {
		defer s.epochMu.Unlock()
		return s.wrongEpochLocked()
	}
	s.epochMu.Unlock()
	if snap > s.DurableFrontier() {
		s.stats.FollowerReadWaits.Add(1)
		if !s.waitFrontierBounded(snap, followerReadPatience) {
			s.epochMu.Lock()
			defer s.epochMu.Unlock()
			return s.wrongEpochLocked()
		}
	}
	s.stats.FollowerReads.Add(1)
	return nil
}

// followerReadPatience bounds how long a backup holds a read whose
// snapshot is slightly above its durability frontier before redirecting
// it to the primary. The gap is a propagation race: the client learned
// the frontier from the primary's latest ack, while this backup's copy
// of the watermark rides the NEXT mirror batch or lease renewal. Under
// write load that batch arrives within a round trip — far cheaper to
// absorb here than to burn a redirect plus a primary round trip — and
// when the group is idle the client's frontier equals ours and no wait
// happens at all.
const followerReadPatience = 5 * time.Millisecond

// waitFrontierBounded parks until the durability frontier reaches snap
// or the patience budget runs out, reporting whether it got there. The
// wait is event-driven — woken by the frontier advance itself — so a
// read held on the piggyback race resumes the moment the mirror batch
// lands rather than a sleep quantum later.
func (s *Store) waitFrontierBounded(snap clock.Timestamp, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		// Channel before check: an advance between the two is then a
		// closed channel, never a lost wakeup.
		ch := s.pipe.frontierChanged()
		if snap <= s.DurableFrontier() {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			return snap <= s.DurableFrontier()
		}
	}
}

// WaitDurable blocks until the durability frontier passes snap, so a
// read at snap afterwards observes only quorum-durable writes — the
// DurableReads mode. Observing snap into the clock FIRST is what makes
// the subsequent watermark wait sufficient: any commit proposed after
// the observation lands strictly above snap (the same Clock-SI rule
// Read relies on), so waiting out the records already emitted covers
// everything a read at snap could ever see. On an idle store the wait
// is the in-flight batch's round trip; the fast path is one atomic
// load.
func (s *Store) WaitDurable(snap clock.Timestamp) error {
	if s.DurableFrontier() >= snap {
		return nil
	}
	s.clock.Observe(snap)
	s.repMu.Lock()
	head := s.repSeq
	s.repMu.Unlock()
	if s.DurableFrontier() >= snap || head == 0 {
		return nil
	}
	s.stats.DurableReadWaits.Add(1)
	return s.waitReplicated(head - 1)
}

// InstallEpoch moves the group to a new configuration: the epoch must
// exceed the current one, and the change is a RecEpoch record in the
// replication stream — mirrored to the backup (if attached), appended
// to the replication and write-ahead logs — so the whole group agrees
// on the configuration history in stream order. The emission and
// installation happen under the stream lock, so no record is ever
// stamped with a configuration that was already superseded when it
// entered the stream; InstallEpoch returns only once the record has
// cleared the durability watermark (the backup's ack of the RecEpoch
// batch seeds the new primary's first lease). A replication failure
// leaves the epoch installed locally — the configuration change is
// real — and reports it, so the caller knows the backup has not
// acknowledged the new configuration.
func (s *Store) InstallEpoch(newEpoch uint64, members []string) error {
	s.repMu.Lock()
	s.epochMu.Lock()
	cur := s.epoch
	s.epochMu.Unlock()
	if newEpoch <= cur {
		s.repMu.Unlock()
		return fmt.Errorf("kvserver: epoch %d does not supersede current epoch %d", newEpoch, cur)
	}
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
// reap a just-superseded prepare with zero post-bump grace. The
// install itself re-checks monotonicity under epochMu — callers'
// own checks run under different locks (or none: AdoptEpoch races the
// stream), and the epoch must never move backwards.
func (s *Store) installEpochState(newEpoch uint64, members []string) bool {
	now := time.Now()
	s.txMu.Lock()
	for _, rec := range s.txs {
		if rec.epoch < newEpoch && rec.preparedAt.Before(now) {
			rec.preparedAt = now
		}
	}
	s.txMu.Unlock()
	s.epochMu.Lock()
	if newEpoch <= s.epoch {
		s.epochMu.Unlock()
		return false
	}
	s.epoch = newEpoch
	s.epochMembers = members
	s.promoting = false
	role := s.roleLocked()
	s.epochMu.Unlock()
	s.stats.EpochBumps.Add(1)
	// Keep the durability pipeline's follower flag in lockstep with the
	// epoch role: a backup's frontier may only advance on the primary's
	// word (its own WAL isn't evidence of quorum durability), while a
	// primary computes the watermark from its members' acks directly.
	s.setFollower(role != RolePrimary)
	return true
}

// StartResync puts the store in resync mode: replicated records that
// arrive ahead of the contiguous stream are buffered instead of
// rejected. Call before the primary attaches this store as its mirror,
// so live commits and the history stream can interleave safely.
func (s *Store) StartResync() {
	s.repMu.Lock()
	s.resyncing = true
	s.repMu.Unlock()
}

// FinishResync leaves resync mode. It fails if buffered records remain
// unapplied — that means the history stream stopped short of them.
func (s *Store) FinishResync() error {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.resyncing = false
	if len(s.pending) > 0 {
		return fmt.Errorf("kvserver: resync incomplete: %d records still pending above seq %d", len(s.pending), s.repSeq)
	}
	return nil
}

// syncBatchBytes caps the estimated payload of one sync response,
// comfortably below the wire frame limit regardless of record count.
const syncBatchBytes = 4 << 20

// SyncRecords returns up to max replication-log records starting at
// sequence number from — fewer when the batch would grow past
// syncBatchBytes — plus the current head of the stream and the oldest
// sequence number still in the log (logBase). At least one record is
// always returned when any exists at from, so a single large commit
// (necessarily under the frame limit, it crossed the wire once
// already) cannot stall a resync.
//
// A from below logBase returns an empty batch with base > from — the
// history was truncated at a snapshot checkpoint, and the caller must
// install a snapshot instead (the server surfaces this as
// SyncResp.TooOld). A from beyond the stream head means the requester
// applied records this store never emitted: the replicas hold
// irreconcilable histories, reported loudly as kv.ErrDiverged
// (mirroring ApplyMirrored's strict check) rather than answered with a
// silently empty batch the requester would mistake for "caught up".
//
// reqEpoch is the requester's STREAM epoch (see streamEpoch) and closes
// the diverged-but-BEHIND hole the seq-only checks left open: an
// isolated old primary whose stranded old-epoch records sit at
// sequence numbers this stream later re-stamped passes every position
// check once the head grows past it. When the retained log still holds
// the record just below from, the epoch in force there is compared
// against reqEpoch; a mismatch means the requester's history below
// from is NOT a prefix of this stream, rejected with kv.ErrDiverged —
// the requester can only rejoin by state transfer. When that record
// was truncated the check is skipped here; the requester's own
// per-record apply check (applyRecordLocked) still catches the splice
// on the first delivered record.
func (s *Store) SyncRecords(from uint64, max int, reqEpoch uint64) (recs []kv.SyncRec, head, base uint64, err error) {
	if max <= 0 {
		max = 512
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if from > s.repSeq {
		return nil, s.repSeq, s.logBase, fmt.Errorf("%w: requested seq %d is beyond this replica's head %d: the requester applied records never in this stream, re-form the group", kv.ErrDiverged, from, s.repSeq)
	}
	if from > s.logBase && from <= s.logBase+uint64(len(s.commitLog)) {
		// The record below from is retained; its stamp is the epoch this
		// stream had in force there (a RecEpoch's stamp is the epoch it
		// installed, equally the epoch in force after it).
		if srcEpoch := s.commitLog[from-1-s.logBase].Epoch; srcEpoch != reqEpoch {
			return nil, s.repSeq, s.logBase, fmt.Errorf("%w: requester's stream is at epoch %d below seq %d but this stream had epoch %d in force there: the histories diverged, rejoin by state transfer", kv.ErrDiverged, reqEpoch, from, srcEpoch)
		}
	}
	return s.retainedLocked(from, max), s.repSeq, s.logBase, nil
}

// retainedLocked slices up to max records of the retained tail starting
// at sequence number from, stopping early once the batch would pass
// syncBatchBytes (at least one record always goes). A from outside the
// retained window — truncated below logBase, or at the head — yields
// nothing. Caller holds repMu.
func (s *Store) retainedLocked(from uint64, max int) []kv.SyncRec {
	if from < s.logBase || from >= s.logBase+uint64(len(s.commitLog)) {
		return nil
	}
	end := from + uint64(max)
	if top := s.logBase + uint64(len(s.commitLog)); end > top {
		end = top
	}
	recs := make([]kv.SyncRec, 0, end-from)
	bytes := 0
	for seq := from; seq < end; seq++ {
		rec := s.commitLog[seq-s.logBase]
		sz := recordSize(&rec)
		if len(recs) > 0 && bytes+sz > syncBatchBytes {
			break
		}
		bytes += sz
		recs = append(recs, kv.SyncRec{Seq: seq, Rec: rec})
	}
	return recs
}

// recordSize estimates the wire size of one replication record,
// including the epoch stamp and — for RecEpoch records — the
// membership list, so an epoch-heavy log tail cannot overshoot
// syncBatchBytes.
func recordSize(rec *kv.ReplRecord) int {
	n := 32 // kind, epoch, txid, ts, commit flag, op/member counts
	for _, m := range rec.Members {
		n += len(m) + 4
	}
	for _, op := range rec.Ops {
		n += 16 + op.Value.EncodedSize() +
			len(op.Cell.Key) + len(op.Cell.Value) +
			len(op.From) + len(op.To) + len(op.Low) + len(op.High)
	}
	return n
}

// LogBounds reports the retained replication log's window: base is the
// oldest sequence number still held, head the next to be assigned, so
// head-base records are in memory (tests and diagnostics).
func (s *Store) LogBounds() (logBase, head uint64) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.logBase, s.repSeq
}

// Checkpoint captures a snapshot of the store's full state at the
// current stream head, rotates the write-ahead log onto it (restart
// replays snapshot + tail instead of the full history), and truncates
// the ENTIRE in-memory replication log (logBase advances to the head
// — an explicit checkpoint is an operator's full truncation). A
// backup that later asks to sync from below the new logBase is served
// by state transfer. It returns the sequence number the checkpoint
// covers. The automatic policy path instead retains a half-cap tail
// (see checkpointLocked), so a replica that is merely a little behind
// at checkpoint time still catches up by record replay. A store without
// a write-ahead log only truncates.
func (s *Store) Checkpoint() (uint64, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.checkpointLocked(false)
}

// checkpointLocked is the one checkpoint sequence: capture → truncate →
// drain → beginRotate → finish. Caller holds repMu, and the visible
// state must be consistent with repSeq (every emitted record fully
// applied) — true at the end of any emit-and-apply critical section,
// never in the middle of one. async selects the policy flavour: the
// newest half-cap of records is kept (truncating to empty would force
// O(state) transfer on any replica even one record behind, while
// retaining half leaves headroom so the next append does not
// immediately re-trip the bound), and the O(state) encode and the
// rotation run on a goroutine, off repMu. The explicit Checkpoint
// truncates everything and finishes inline, so its caller learns the
// rotation's outcome. A store without a write-ahead log has nothing to
// rotate: its checkpoint is the truncation.
//
//yesqlint:allow repmublock -- deliberate: the explicit Checkpoint keeps the rotation inline under repMu (bounded local file work); the policy paths run finishCheckpoint on a goroutine, off-lock
func (s *Store) checkpointLocked(async bool) (uint64, error) {
	if s.wal == nil {
		s.truncateLogLocked(async)
		s.stats.Checkpoints.Add(1)
		return s.repSeq, nil
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		// A rotation is still encoding/writing off-lock: truncate in
		// memory now (the bound is strict) and let the in-flight
		// checkpoint — or the next one — bound the file.
		s.truncateLogLocked(async)
		return 0, fmt.Errorf("kvserver: a checkpoint rotation is already in progress")
	}
	// Under repMu: capture the minimal in-memory copy and write the
	// already-emitted records into the file.
	sn := s.captureSnapshotLocked()
	s.truncateLogLocked(async)
	if !s.drainWALLocked() {
		// Queued records could not reach the file; rotating now would
		// let a later flush tee them after a snapshot that already
		// covers them (double apply on replay). The truncation stands;
		// the rotation waits for a drain that succeeds.
		s.ckptBusy.Store(false)
		s.stats.CheckpointFailures.Add(1)
		return 0, fmt.Errorf("kvserver: checkpoint aborted: write-ahead log append failing; records re-queued for retry")
	}
	s.wal.beginRotate()
	seq := s.repSeq
	if async {
		go s.finishCheckpoint(s.wal, sn)
		return seq, nil
	}
	if err := s.finishCheckpoint(s.wal, sn); err != nil {
		return 0, err
	}
	return seq, nil
}

// truncateLogLocked drops the retained stream tail (keeping the newest
// half-cap of records when retainTail is set), independent of
// any WAL rotation outcome: serving a resync below logBase only needs
// an on-demand snapshot (ServeSnapshotChunk), not the rotated file,
// and a restart replays the old, un-rotated log correctly — longer,
// but complete. The memory bound must hold even when the disk does not
// cooperate. Caller holds repMu.
func (s *Store) truncateLogLocked(retainTail bool) {
	keep, keepBytes := 0, 0
	if retainTail {
		keep, keepBytes = s.retainableTailLocked()
	}
	if drop := len(s.commitLog) - keep; drop > 0 {
		s.stats.LogRecordsTruncated.Add(uint64(drop))
		// Copy the tail out so the dropped prefix's backing array is
		// actually freed.
		s.commitLog = append([]kv.ReplRecord(nil), s.commitLog[drop:]...)
		s.commitLogBytes = keepBytes
		s.logBase += uint64(drop)
	}
}

// finishCheckpoint is the off-lock tail of a checkpoint: encode the
// captured snapshot and rotate the write-ahead log onto it. The
// expensive O(state) serialization and file write run WITHOUT repMu —
// the ROADMAP-flagged latency spike where a checkpoint under the
// stream lock could stall mirror applies past the mirror timeout —
// while appends that race the rotation are teed into the new file by
// the wal itself (see wal.finishRotate). The policy paths run it on a
// goroutine; the explicit Checkpoint keeps it inline.
func (s *Store) finishCheckpoint(w *wal, sn *stateSnapshot) error {
	defer s.ckptBusy.Store(false)
	enc := encodeSnapshot(sn)
	if _, err := w.finishRotate(enc); err != nil {
		// The counter is the operator signal: the inline policy
		// callers never see this error (a failed bound must not fail
		// the commit that tripped it), so a climbing value is how a
		// full disk — or a state too large for one checkpoint frame —
		// shows up before memory pressure does.
		s.stats.CheckpointFailures.Add(1)
		return fmt.Errorf("kvserver: rotating log onto checkpoint: %w", err)
	}
	s.stats.Checkpoints.Add(1)
	return nil
}

// retainableTailLocked reports how many of the newest log records fit
// within half of each configured bound, and their estimated byte size
// (so the caller need not rescan them). Caller holds repMu.
func (s *Store) retainableTailLocked() (n, bytes int) {
	for i := len(s.commitLog) - 1; i >= 0; i-- {
		sz := recordSize(&s.commitLog[i])
		if s.cfg.ReplicationLogMaxRecords > 0 && n+1 > s.cfg.ReplicationLogMaxRecords/2 {
			break
		}
		if s.cfg.ReplicationLogMaxBytes > 0 && bytes+sz > s.cfg.ReplicationLogMaxBytes/2 {
			break
		}
		n++
		bytes += sz
	}
	return n, bytes
}

// MaybeCheckpoint checkpoints if the retained replication log exceeds
// the configured bounds, reporting whether it did. The emit paths call
// the locked variant inline (the bound is strict on a primary, not
// best-effort); the server runs it on a short ticker too, which is
// what bounds a live-mirror backup between the hard-ceiling triggers
// (see mirrorCheckpointSlack).
func (s *Store) MaybeCheckpoint() (bool, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.maybeCheckpointLocked()
}

// mirrorCheckpointSlack multiplies the configured bounds on the
// live-mirror apply path: an inline checkpoint there runs while the
// primary synchronously waits for the ack, so routine truncation is
// left to the server's checkpoint ticker — but the memory bound must
// not depend on a ticker alone, so past slack times the cap the apply
// path checkpoints anyway, accepting the one delayed ack.
const mirrorCheckpointSlack = 4

func (s *Store) maybeCheckpointLocked() (bool, error) {
	return s.maybeCheckpointSlackLocked(1)
}

func (s *Store) maybeCheckpointSlackLocked(slack int) (bool, error) {
	overRecords := s.cfg.ReplicationLogMaxRecords > 0 && len(s.commitLog) > slack*s.cfg.ReplicationLogMaxRecords
	overBytes := s.cfg.ReplicationLogMaxBytes > 0 && s.commitLogBytes > slack*s.cfg.ReplicationLogMaxBytes
	if !overRecords && !overBytes {
		return false, nil
	}
	// The bound held whatever the rotation's fate (the truncation never
	// fails), and a failed bound must not fail the commit that tripped
	// it: CheckpointFailures is the operator's signal.
	s.checkpointLocked(true)
	return true, nil
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
	}
	for i := range s.shard {
		s.shard[i].objs = make(map[kv.OID]*object)
	}
	s.initPipe()
	return s
}

// Clock returns the store's hybrid logical clock.
func (s *Store) Clock() *clock.HLC { return s.clock }

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

		FollowerReads:     s.stats.FollowerReads.Load(),
		FollowerReadWaits: s.stats.FollowerReadWaits.Load(),
		DurableReadWaits:  s.stats.DurableReadWaits.Load(),

		WrongSlotRejects: s.stats.WrongSlotRejects.Load(),
		MigratedVersions: s.stats.MigratedVersions.Load(),
	}
}

func (s *Store) shardFor(oid kv.OID) *shard {
	// OID locals are assigned sequentially or randomly; fold the bits.
	h := uint64(oid)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &s.shard[h%numShards]
}

// Read returns the newest version of oid visible at snap. The returned
// value must not be mutated by the caller (versions are immutable).
func (s *Store) Read(oid kv.OID, snap clock.Timestamp) (*kv.Value, clock.Timestamp, error) {
	s.stats.Reads.Add(1)
	// Advance the local clock past the snapshot before touching the
	// store: together with assigning proposed timestamps only after all
	// prepare locks are held, this guarantees that any commit that this
	// read could not see lands strictly above snap (Clock-SI).
	s.clock.Observe(snap)
	sh := s.shardFor(oid)
	deadline := time.Now().Add(s.cfg.LockWaitTimeout)
	// One reusable timer for the whole wait loop: time.After leaks a
	// live timer until the deadline on EVERY woken iteration, and a
	// read can be woken once per conflicting transaction.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		sh.mu.Lock()
		obj := sh.objs[oid]
		if obj == nil {
			sh.mu.Unlock()
			return nil, 0, kv.ErrNotFound
		}
		// Clock-SI read rule: a prepared-but-unresolved transaction with
		// proposed <= snap might commit below our snapshot; wait for it.
		if obj.lock != nil && obj.lock.proposed <= snap {
			ch := obj.lock.done
			sh.mu.Unlock()
			s.stats.ReadWaits.Add(1)
			if timer == nil {
				timer = time.NewTimer(time.Until(deadline))
			} else {
				// The previous wait ended on ch, but the timer may have
				// fired concurrently; drain the stale tick before
				// rearming or the next select would time out instantly.
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(time.Until(deadline))
			}
			select {
			case <-ch:
				continue
			case <-timer.C:
				timer = nil
				return nil, 0, fmt.Errorf("%w: read blocked on prepared transaction", kv.ErrConflict)
			}
		}
		v, ts, ok := visibleVersion(obj, snap)
		trimmed := obj.gcFloor != 0
		sh.mu.Unlock()
		if !ok && trimmed {
			// Every retained version is newer than snap, and older ones
			// were garbage-collected: what snap should see is gone, and
			// "not found" would be a wrong answer (a hot tree root would
			// read as dangling). The reader must take a fresh snapshot.
			return nil, 0, fmt.Errorf("%w: snapshot predates GC horizon", kv.ErrConflict)
		}
		if !ok || v == nil {
			return nil, 0, kv.ErrNotFound
		}
		return v, ts, nil
	}
}

// ReadPart returns a windowed view of oid at snap: attributes and
// bounds always, cells limited to [floor(from), to) capped at max, and
// the node's total cell count. Plain values come back whole.
func (s *Store) ReadPart(oid kv.OID, snap clock.Timestamp, from, to []byte, max uint32) (*kv.Value, int, clock.Timestamp, error) {
	v, ts, err := s.Read(oid, snap)
	if err != nil {
		return nil, 0, 0, err
	}
	if v.Kind != kv.KindSuper {
		return v, 0, ts, nil
	}
	// Versions are immutable; build a shallow partial view.
	part := &kv.Value{
		Kind:    kv.KindSuper,
		Attrs:   v.Attrs,
		LowKey:  v.LowKey,
		HighKey: v.HighKey,
		Cells:   v.WindowCells(from, to, max),
	}
	return part, len(v.Cells), ts, nil
}

func visibleVersion(obj *object, snap clock.Timestamp) (*kv.Value, clock.Timestamp, bool) {
	// versions ascend by ts; find the newest with ts <= snap.
	i := sort.Search(len(obj.versions), func(i int) bool {
		return obj.versions[i].ts > snap
	})
	if i == 0 {
		return nil, 0, false
	}
	ver := obj.versions[i-1]
	return ver.val, ver.ts, true
}

// groupOps partitions ops by OID, preserving per-OID order, and returns
// the distinct OIDs in sorted order (so lock acquisition is
// deterministic).
func groupOps(ops []*kv.Op) ([]kv.OID, map[kv.OID][]*kv.Op) {
	byOID := make(map[kv.OID][]*kv.Op)
	var oids []kv.OID
	for _, op := range ops {
		if _, ok := byOID[op.OID]; !ok {
			oids = append(oids, op.OID)
		}
		byOID[op.OID] = append(byOID[op.OID], op)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids, byOID
}

// Prepare validates and locks the transaction's writes (phase one of
// two-phase commit). On success it returns the proposed commit
// timestamp (a lower bound chosen by this participant) — and, on a
// replicated store, the staged ops and locks have been replicated as a
// RecPrepare record, so a promoted backup holds the prepared
// transaction and can still apply the coordinator's decision. On
// conflict it returns kv.ErrConflict and leaves no state behind.
func (s *Store) Prepare(txid uint64, start clock.Timestamp, ops []*kv.Op) (clock.Timestamp, error) {
	return s.prepare(txid, start, ops, true)
}

// prepare implements Prepare. replicate=false is the one-shot fast-
// commit path: its commit immediately follows, and the single
// RecCommit record carries the ops, so a separate prepare record would
// only double the stream traffic.
func (s *Store) prepare(txid uint64, start clock.Timestamp, ops []*kv.Op, replicate bool) (clock.Timestamp, error) {
	s.stats.Prepares.Add(1)
	oids, byOID := groupOps(ops)

	s.txMu.Lock()
	if _, dup := s.txs[txid]; dup {
		s.txMu.Unlock()
		return 0, fmt.Errorf("%w: duplicate prepare for tx %d", kv.ErrBadRequest, txid)
	}
	rec := &txRecord{oids: oids, epoch: s.Epoch(), preparedAt: time.Now()}
	s.txs[txid] = rec
	s.txMu.Unlock()

	locked := make([]kv.OID, 0, len(oids))
	fail := func(reason error) (clock.Timestamp, error) {
		s.releaseLocks(txid, locked)
		s.txMu.Lock()
		delete(s.txs, txid)
		s.txMu.Unlock()
		s.stats.Conflicts.Add(1)
		return 0, reason
	}

	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		obj := sh.objs[oid]
		if obj == nil {
			obj = &object{}
			sh.objs[oid] = obj
		}
		if obj.lock != nil {
			holder := obj.lock.txid
			sh.mu.Unlock()
			return fail(fmt.Errorf("%w: %v locked by tx %d", kv.ErrConflict, oid, holder))
		}
		// First-committer-wins at cell granularity: a version committed
		// after our snapshot conflicts if either side is structural or
		// their touch sets intersect. Purely commutative deltas on
		// disjoint cells (concurrent inserts into one DBT leaf) pass.
		if err := conflictLocked(obj, start, byOID[oid]); err != nil {
			sh.mu.Unlock()
			return fail(err)
		}
		// Dry-run the ops so commit cannot fail later: the base cannot
		// change while we hold the lock.
		base, _, _ := visibleVersion(obj, clock.Max)
		ok := true
		var applyErr error
		for _, op := range byOID[oid] {
			base, applyErr = op.Apply(base)
			if applyErr != nil {
				ok = false
				break
			}
		}
		if !ok {
			sh.mu.Unlock()
			return fail(fmt.Errorf("%w: %v", kv.ErrBadRequest, applyErr))
		}
		// proposed stays 0 (sentinel) until every lock is held; readers
		// that hit the lock in this window wait conservatively.
		obj.lock = &lockState{txid: txid, ops: byOID[oid], done: make(chan struct{})}
		sh.mu.Unlock()
		locked = append(locked, oid)
	}

	// All locks held: choose the proposed commit timestamp. Issuing it
	// only now guarantees it exceeds the snapshot of every read already
	// served for these objects (each read Observed its snapshot before
	// finding the object unlocked), so the eventual commit timestamp
	// (>= proposed) cannot land below a snapshot that missed it.
	proposed := s.clock.Observe(start)
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		if obj := sh.objs[oid]; obj != nil && obj.lock != nil && obj.lock.txid == txid {
			obj.lock.proposed = proposed
		}
		sh.mu.Unlock()
	}

	// Replicate the prepared state before voting yes: the vote promises
	// the coordinator this participant can commit, so the promise must
	// survive a primary failure. The emission and the replicated-flag
	// publication are one repMu critical section: a state snapshot
	// (captured under repMu) carries exactly the prepares whose
	// RecPrepare is below its sequence number — rec.replicated set —
	// and skips the rest, whose records land in the tail the snapshot
	// installer replays. The durability wait happens after the lock: if
	// the record never clears the watermark (the backup is dead or
	// diverged), the vote is no — but the record DID enter the stream,
	// so the abort owes it a decision record (s.abort emits one).
	if replicate {
		s.repMu.Lock()
		// Migration fence: re-check route ownership under repMu, so the
		// check and the emission are one atomic point in the stream
		// relative to InstallDirectory. A write that loses the race gets
		// the typed redirect and was provably never prepared here.
		if wse := s.fencedOIDsLocked(oids); wse != nil {
			s.repMu.Unlock()
			s.releaseLocks(txid, locked)
			s.txMu.Lock()
			delete(s.txs, txid)
			s.txMu.Unlock()
			return 0, wse
		}
		seq := s.emitLocked(kv.ReplRecord{Kind: kv.RecPrepare, TxID: txid, TS: proposed, Ops: ops})
		s.txMu.Lock()
		if s.txs[txid] != rec {
			// The orphan sweep (or an early coordinator abort) resolved
			// the transaction while its prepare record was entering the
			// stream — and, having seen an unreplicated prepare, emitted
			// no decision. The stream is owed the abort; the vote is no.
			s.txMu.Unlock()
			s.emitLocked(kv.ReplRecord{Kind: kv.RecDecide, TxID: txid, Commit: false})
			s.repMu.Unlock()
			return 0, fmt.Errorf("%w: tx %d aborted during prepare", kv.ErrConflict, txid)
		}
		rec.replicated = true
		s.txMu.Unlock()
		s.maybeCheckpointLocked()
		s.repMu.Unlock()
		if err := s.waitReplicated(seq); err != nil {
			// abort resolves the prepared transaction if it is still
			// staged (releasing the locks and emitting the owed abort
			// decision) and is a no-op if something else already did.
			s.abort(txid, false)
			return 0, fmt.Errorf("kv: replicating prepare: %w", err)
		}
	}
	return proposed, nil
}

// emitLocked appends one record to the replication stream: it assigns
// the next sequence number, appends the record to the in-memory
// replication log, and hands it to the group-commit pipeline, which
// batches the mirror RPC and the write-ahead-log append off the stream
// lock. Emission is purely local and cannot fail; callers whose
// acknowledgment promises replication or durability (commits,
// prepares, epoch changes) call waitReplicated with the returned
// sequence number AFTER releasing repMu — that wait, outside the
// stream lock, is what lets concurrent writers share round trips and
// fsyncs. Callers whose record is fire-and-forget (abort decisions,
// which must release locks no matter what) simply do not wait; a
// missed record surfaces on the backup as a loud sequence gap.
//
// Caller holds repMu — the native write paths hold it across the
// emission AND the application of the record's effects, so stream
// order, log order, per-object version order, and any state snapshot
// captured under repMu all agree. Every record is stamped with the
// epoch in effect when it enters the stream — except RecEpoch, whose
// Epoch field carries the new epoch it installs.
func (s *Store) emitLocked(rec kv.ReplRecord) uint64 {
	if rec.Kind != kv.RecEpoch {
		s.epochMu.Lock()
		rec.Epoch = s.epoch
		s.epochMu.Unlock()
	} else if rec.Epoch > s.streamEpoch {
		// The stream itself is installing this epoch; record stamps from
		// here on must match it (see streamEpoch).
		s.streamEpoch = rec.Epoch
	}
	seq := s.repSeq
	s.repSeq++
	s.commitLog = append(s.commitLog, rec)
	s.commitLogBytes += recordSize(&rec)
	s.enqueueLocked(seq, rec)
	return seq
}

// conflictLocked applies the first-committer-wins rule for a
// transaction with snapshot start writing ops to obj. Caller holds the
// shard mutex.
func conflictLocked(obj *object, start clock.Timestamp, ops []*kv.Op) error {
	n := len(obj.versions)
	if n == 0 || obj.versions[n-1].ts <= start {
		return nil // nothing committed since the snapshot
	}
	if start <= obj.gcFloor {
		// History below the GC floor is gone; we cannot prove the
		// touched sets are disjoint.
		return fmt.Errorf("%w: snapshot predates GC horizon", kv.ErrConflict)
	}
	txStructural, txTouched := classifyOps(ops)
	for i := n - 1; i >= 0 && obj.versions[i].ts > start; i-- {
		v := &obj.versions[i]
		if txStructural || v.structural {
			return fmt.Errorf("%w: concurrent structural write", kv.ErrConflict)
		}
		for k := range txTouched {
			if _, hit := v.touched[k]; hit {
				return fmt.Errorf("%w: concurrent write to same cell", kv.ErrConflict)
			}
		}
	}
	return nil
}

// Commit applies a prepared transaction's staged operations at commitTS
// and releases its locks (phase two of two-phase commit). Commit is
// idempotent: a retried decision for a transaction already in the
// decided table is acknowledged with the recorded outcome — nil for a
// commit, kv.ErrConflict for an abort — so a coordinator whose first
// acknowledgment was lost can safely re-send the decision, including
// to a promoted backup. Committing a transaction this store has never
// heard of is an error.
func (s *Store) Commit(txid uint64, commitTS clock.Timestamp) error {
	applied, err := s.commit(txid, commitTS)
	if applied {
		s.stats.Commits.Add(1)
	}
	return err
}

func (s *Store) commit(txid uint64, commitTS clock.Timestamp) (applied bool, err error) {
	// The whole transition — emit the decision, apply the staged ops,
	// record the outcome — is one repMu critical section: the stream
	// position and the visible state never disagree, which is what lets
	// a state snapshot captured under repMu (and tagged with repSeq)
	// claim to cover every record below it.
	//
	// The DURABILITY WAIT happens after the critical section: the
	// record is emitted and its effects applied under repMu, but the
	// client's acknowledgment is withheld until the record clears the
	// pipeline's watermark (backup ack + fsync). A wait failure returns
	// an error with the record already in the local stream — the caller
	// sees the same uncertainty a lost acknowledgment produces, and the
	// acked-writes-survive-failover guarantee holds because no ack went
	// out.
	s.repMu.Lock()
	rec, dup, err := s.takePrepared(txid)
	if rec == nil {
		s.repMu.Unlock()
		if err == nil && dup.replSeq > 0 {
			// Duplicate decision for an applied commit: ack only once
			// its record is replicated — the retry may be the client's
			// way of asking "did that really land?".
			if werr := s.waitReplicated(dup.replSeq - 1); werr != nil {
				return false, fmt.Errorf("%w: replicating commit: %v", kv.ErrUncertain, werr)
			}
		}
		return false, err
	}
	s.clock.Observe(commitTS)
	// Migration fence, fast-commit half: an UNREPLICATED prepare's ops
	// enter the stream only now, so the ownership re-check happens here,
	// atomically with the emission. A REPLICATED prepare is exempt by
	// design: its RecPrepare sits below the fence in the stream, the
	// migration tail carries it to the destination, and this decision
	// rides the same tail — fencing it would strand a promised vote.
	if !rec.replicated {
		if wse := s.fencedOIDsLocked(rec.oids); wse != nil {
			s.abortLocked(txid, rec, false)
			s.maybeCheckpointLocked()
			s.repMu.Unlock()
			return false, wse
		}
	}
	// The per-object locks are still held here, so the replication
	// stream order, the log order, and per-object version order all
	// agree — on this store and, because batches apply in sequence, on
	// the backup. A replicated prepare only needs the decision on the
	// wire (RecDecide); otherwise the whole transaction rides in one
	// RecCommit record.
	seq := s.emitLocked(s.commitRecord(txid, rec, commitTS))
	s.applyStaged(txid, rec.oids, commitTS)
	s.recordDecision(txid, decision{commit: true, commitTS: commitTS, replSeq: seq + 1})
	s.maybeCheckpointLocked()
	s.repMu.Unlock()
	if err := s.waitReplicated(seq); err != nil {
		// The record is in the local stream and its effects are
		// visible, but the replication/durability promise behind an
		// acknowledgment cannot be given: the outcome is exactly what
		// ErrUncertain names — applied here, surviving a failover only
		// if the batch reached the backup after all.
		return true, fmt.Errorf("%w: replicating commit: %v", kv.ErrUncertain, err)
	}
	return true, nil
}

// commitRecord builds a committing transaction's stream record: a bare
// RecDecide when the prepare was already replicated, otherwise a
// RecCommit carrying the staged ops gathered from the objects' locks
// (stable — the caller owns the transaction's resolution).
func (s *Store) commitRecord(txid uint64, rec *txRecord, commitTS clock.Timestamp) kv.ReplRecord {
	if rec.replicated {
		return kv.ReplRecord{Kind: kv.RecDecide, TxID: txid, TS: commitTS, Commit: true}
	}
	out := kv.ReplRecord{Kind: kv.RecCommit, TxID: txid, TS: commitTS}
	for _, oid := range rec.oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		if obj := sh.objs[oid]; obj != nil && obj.lock != nil && obj.lock.txid == txid {
			out.Ops = append(out.Ops, obj.lock.ops...)
		}
		sh.mu.Unlock()
	}
	return out
}

// takePrepared removes txid's record from the prepared-transaction
// table and returns it. A nil record means the transaction cannot be
// committed, with err saying why: nil for a duplicate decision that
// already committed (ack it again, after its record's durability wait
// — dup carries the recorded outcome), ErrConflict for one that
// already aborted, ErrBadRequest for a transaction this store never
// heard of.
func (s *Store) takePrepared(txid uint64) (*txRecord, decision, error) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	rec := s.txs[txid]
	if rec == nil {
		d, decided := s.decided[txid]
		switch {
		case decided && d.commit:
			return nil, d, nil // duplicate decision: already committed
		case decided:
			return nil, d, fmt.Errorf("%w: tx %d already aborted", kv.ErrConflict, txid)
		}
		return nil, decision{}, fmt.Errorf("%w: commit of unknown tx %d", kv.ErrBadRequest, txid)
	}
	delete(s.txs, txid)
	return rec, decision{}, nil
}

// applyStaged turns a prepared transaction's staged ops into visible
// versions at commitTS and releases its locks.
func (s *Store) applyStaged(txid uint64, oids []kv.OID, commitTS clock.Timestamp) {
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		obj := sh.objs[oid]
		if obj == nil || obj.lock == nil || obj.lock.txid != txid {
			sh.mu.Unlock()
			continue // defensive; cannot happen with a correct client
		}
		base, _, _ := visibleVersion(obj, clock.Max)
		val := base
		for _, op := range obj.lock.ops {
			next, err := op.Apply(val)
			if err != nil {
				// Validated at prepare; unreachable unless the client
				// mutated ops concurrently. Keep prior value.
				break
			}
			val = next
		}
		structural, touched := classifyOps(obj.lock.ops)
		obj.versions = append(obj.versions, version{ts: commitTS, val: val, structural: structural, touched: touched})
		s.trimLocked(obj)
		close(obj.lock.done)
		obj.lock = nil
		// Tombstones are kept until the retention horizon passes (the
		// sweeper removes them): erasing the object now would also
		// erase the conflict history a concurrent transaction with an
		// older snapshot still needs.
		sh.mu.Unlock()
	}
}

// recordDecision remembers a transaction's outcome for DecidedTTL (and
// at most decidedMax entries), so retried phase-two requests are
// answered instead of rejected.
func (s *Store) recordDecision(txid uint64, d decision) {
	now := time.Now()
	s.txMu.Lock()
	s.decided[txid] = d
	s.decidedQ = append(s.decidedQ, decidedEntry{txid: txid, at: now})
	s.evictDecidedLocked(now)
	s.txMu.Unlock()
}

// evictDecidedLocked drops decided entries past their TTL, and the
// oldest entries beyond the size cap. Caller holds txMu.
func (s *Store) evictDecidedLocked(now time.Time) {
	ttl := s.cfg.DecidedTTL
	for len(s.decidedQ) > 0 {
		head := s.decidedQ[0]
		if now.Sub(head.at) < ttl && len(s.decided) <= decidedMax {
			break
		}
		delete(s.decided, head.txid)
		s.decidedQ = s.decidedQ[1:]
	}
}

// SweepDecided evicts expired decided-transaction entries; the server
// runs it periodically, tests call it directly.
func (s *Store) SweepDecided() {
	s.txMu.Lock()
	s.evictDecidedLocked(time.Now())
	s.txMu.Unlock()
}

// Decided reports whether txid's outcome is in the decided table, and
// whether it committed (tests and diagnostics).
func (s *Store) Decided(txid uint64) (known, committed bool) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	d, ok := s.decided[txid]
	return ok, d.commit
}

// Abort releases a prepared transaction's locks without applying, and
// records the abort decision. Aborting an unknown transaction is a
// no-op (idempotent, so the coordinator can abort blindly after a
// partial prepare).
func (s *Store) Abort(txid uint64) {
	s.abort(txid, false)
}

func (s *Store) abort(txid uint64, orphan bool) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.txMu.Lock()
	rec := s.txs[txid]
	delete(s.txs, txid)
	s.txMu.Unlock()
	if rec == nil {
		return
	}
	s.abortLocked(txid, rec, orphan)
	s.maybeCheckpointLocked()
}

// abortLocked resolves a transaction already removed from the prepared
// table as aborted: decision emitted if owed, locks released, outcome
// recorded — one repMu critical section. Caller holds repMu.
//
// A replicated prepare owes the stream its decision: the backup (and
// the write-ahead log) must release the staged locks too. The abort
// never waits on the durability watermark — locks must come free even
// when the backup is unreachable; a missed record surfaces as a loud
// sequence gap on the backup's next batch.
func (s *Store) abortLocked(txid uint64, rec *txRecord, orphan bool) {
	if rec.replicated {
		s.emitLocked(kv.ReplRecord{Kind: kv.RecDecide, TxID: txid, Commit: false})
	}
	s.releaseLocks(txid, rec.oids)
	s.recordDecision(txid, decision{commit: false})
	s.stats.Aborts.Add(1)
	if orphan {
		s.stats.OrphanAborts.Add(1)
	}
}

// SweepOrphans aborts prepares whose decision never arrived, subject
// to the epoch discipline: a prepare may be TTL-aborted only when
// the epoch under which it was accepted is provably superseded (the
// group moved on — a failover or re-formation happened, and the TTL,
// restarted at the bump, has since given the coordinator a full window
// to redirect its decision to this member). A prepare whose epoch is
// still current is NEVER unilaterally aborted: its coordinator may be
// slow, partitioned, or mid-drive on a decided commit, and aborting
// against a decided commit breaks atomicity. Within a stable epoch, 2PC
// blocks, safely; an operator can force an epoch bump to reap a
// provably dead coordinator's locks.
//
// A transaction with a recorded decision is never swept (it left the
// prepared table when the decision was applied). The server runs this
// periodically; tests call it directly. It returns how many prepares
// were aborted.
func (s *Store) SweepOrphans() int {
	now := time.Now()
	curEpoch := s.Epoch()
	var victims []uint64
	s.txMu.Lock()
	for txid, rec := range s.txs {
		// A prepare whose epoch is still current blocks, never aborts.
		if rec.epoch < curEpoch && now.Sub(rec.preparedAt) >= s.cfg.PrepareTTL {
			victims = append(victims, txid)
		}
	}
	s.txMu.Unlock()
	for _, txid := range victims {
		s.abort(txid, true)
	}
	return len(victims)
}

func (s *Store) releaseLocks(txid uint64, oids []kv.OID) {
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		obj := sh.objs[oid]
		if obj != nil && obj.lock != nil && obj.lock.txid == txid {
			close(obj.lock.done)
			obj.lock = nil
			if len(obj.versions) == 0 {
				delete(sh.objs, oid)
			}
		}
		sh.mu.Unlock()
	}
}

// FastCommit executes a single-participant transaction in one step:
// prepare and commit without a second round trip. It returns the commit
// timestamp. The prepare is not replicated separately — the whole
// transaction rides in one RecCommit stream record — and the commit
// counts toward FastCommits, not Commits (the counters are disjoint).
func (s *Store) FastCommit(txid uint64, start clock.Timestamp, ops []*kv.Op) (clock.Timestamp, error) {
	proposed, err := s.prepare(txid, start, ops, false)
	if err != nil {
		return 0, err
	}
	if _, err := s.commit(txid, proposed); err != nil {
		return 0, err
	}
	s.stats.FastCommits.Add(1)
	return proposed, nil
}

// trimLocked garbage-collects superseded versions. Caller holds the
// shard mutex. We always keep the newest version, plus the newest
// version at or below the retention horizon (the base any
// within-retention snapshot could need).
func (s *Store) trimLocked(obj *object) {
	if len(obj.versions) <= 1 {
		return
	}
	nowMillis := s.clock.Last().WallMillis()
	var horizon clock.Timestamp
	if nowMillis > s.cfg.RetentionMillis {
		horizon = clock.Make(nowMillis-s.cfg.RetentionMillis, 0)
	}
	// Index of newest version with ts <= horizon; everything before it
	// is unreachable by any snapshot >= horizon.
	cut := 0
	for i, v := range obj.versions {
		if v.ts <= horizon {
			cut = i
		}
	}
	// Hard cap: never let a hot object's chain grow without bound even
	// inside the retention window.
	if over := len(obj.versions) - s.cfg.MaxVersions; over > cut {
		cut = over
	}
	if cut > 0 {
		s.stats.GCVersions.Add(uint64(cut))
		if f := obj.versions[cut-1].ts; f > obj.gcFloor {
			obj.gcFloor = f
		}
		obj.versions = append([]version(nil), obj.versions[cut:]...)
	}
}

// SweepTombstones removes unlocked objects whose only version is a
// tombstone older than the retention horizon. The server runs this
// periodically; tests call it directly.
func (s *Store) SweepTombstones() int {
	nowMillis := s.clock.Last().WallMillis()
	var horizon clock.Timestamp
	if nowMillis > s.cfg.RetentionMillis {
		horizon = clock.Make(nowMillis-s.cfg.RetentionMillis, 0)
	}
	removed := 0
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			n := len(obj.versions)
			if obj.lock == nil && n > 0 &&
				obj.versions[n-1].val == nil && obj.versions[n-1].ts <= horizon {
				// Newest version is a tombstone past the horizon: no
				// snapshot inside retention can see older data.
				delete(sh.objs, oid)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// NumObjects reports the number of live objects (for tests and stats).
func (s *Store) NumObjects() int {
	n := 0
	for i := range s.shard {
		s.shard[i].mu.Lock()
		n += len(s.shard[i].objs)
		s.shard[i].mu.Unlock()
	}
	return n
}

// VersionCount reports the number of stored versions of oid (tests).
func (s *Store) VersionCount(oid kv.OID) int {
	sh := s.shardFor(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objs[oid]
	if obj == nil {
		return 0
	}
	return len(obj.versions)
}

// StateDigest returns a deterministic digest of the store's full
// multi-version state: every object's version history with commit
// timestamps and encoded values. Two replicas that applied the same
// replication stream have equal digests (per-object hashes are XORed,
// so shard iteration order does not matter).
func (s *Store) StateDigest() uint64 {
	var total uint64
	var tsb [8]byte
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			h := fnv.New64a()
			binary.BigEndian.PutUint64(tsb[:], uint64(oid))
			h.Write(tsb[:])
			for _, v := range obj.versions {
				binary.BigEndian.PutUint64(tsb[:], uint64(v.ts))
				h.Write(tsb[:])
				b := wire.NewBuffer(v.val.EncodedSize())
				kv.EncodeValue(b, v.val)
				h.Write(b.Bytes())
			}
			total ^= h.Sum64()
		}
		sh.mu.Unlock()
	}
	return total
}

// IsLocked reports whether oid currently carries a prepare lock (tests).
func (s *Store) IsLocked(oid kv.OID) bool {
	sh := s.shardFor(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objs[oid]
	return obj != nil && obj.lock != nil
}
