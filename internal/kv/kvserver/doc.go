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
// per record and acknowledges at once; it can still be snapshotted or
// take a backup mid-life, because its visible state always equals a
// stream position.
//
// Every server is a member of a replication group — a fresh store is
// the sole primary of its own one-member group — and a group has one
// membership: the installed epoch's. It decides roles, the lease and
// client redirects, and it is also the quorum's: installing an epoch
// sets the primary's member senders to the other members it lists, so
// need is a majority of exactly that group. One call changes it,
// Server.Reconfigure, which forms a group, grows or shrinks it, and
// completes a promotion. Every stream record is mirrored to the
// members, and the client's acknowledgment is withheld until a majority
// of the group holds the record, so a failover never loses an
// acknowledged write. A mirror batch says where it starts and a backup
// applies it only at its own stream head; a backup that is behind (it
// missed records, or is new) answers with its head, and the primary's
// sender resends from there out of its retained tail, the same records
// the write-ahead log holds. That sender is the only way records reach
// a backup: it also catches up learners, pushes snapshots to a backup
// the tail no longer reaches or whose history diverged, and retries a
// failed member without end, so a backup that came back at its address,
// even empty, rejoins with no operator call (replcore.go).
//
// Placement is arithmetic: an OID's group is its slot modulo the group
// count (kv.OID.Group), fixed when the cluster forms. A store told its
// group and the count (Store.SetGroup, before it serves) refuses a client
// operation on an OID another group owns with a WrongSlotError before it
// executes; a store never told, such as a yesqueld daemon's, serves every
// slot.
//
// # Group commit and pipelined mirroring
//
// Emission and the durability wait are decoupled (pipeline.go), and
// every decision of the replication protocol is a pure value, with no
// lock, clock or I/O: the primary's side is replCore (replcore.go),
// whose member senders only carry out its actions, and the backup's side
// is replicaCore (epoch.go), whose verdicts ApplyMirroredBatch only
// carries out. Every commit, prepare and abort has one shape: emit the
// record, apply its effects (a two-phase decision also enters the
// decided table) — one repMu critical section — then write the
// write-ahead log and wait on the durability watermark outside it. What
// happens under repMu, on every store — the invariants every consumer of
// the stream relies on:
//
//   - sequence assignment and the epoch stamp;
//   - the retained-tail append;
//   - the application of the record's effects (commit versions,
//     staged prepares, epoch installs) — so visible state always
//     equals the stream position when repMu is free, which is what
//     lets snapshot captures and pushes claim exact coverage.
//
// What never happens under repMu: the mirror RPC and the
// write-ahead-log write/fsync. The retained tail is the one copy of the
// stream a store keeps, and both sinks read it at a cursor. Each
// member's sender cuts whatever accumulated past its member's position
// during its previous round trip into ONE mirror batch. Whoever emitted
// or applied records — a committer, an aborter, the mirror handler —
// writes them to the log once it has released repMu, and one writer at
// a time takes the whole tail past the log's cursor, so the records of
// the writers queued behind it ride the same ONE append and fsync
// (pipeline.go: writeWAL). No goroutine of its own moves records to
// the log.
//
// The WATERMARK ACK RULE: a commit, prepare, or epoch change is
// acknowledged only once its sequence number clears the durability
// watermark — covered by a quorum of member acknowledgments (when
// members are attached) AND written to the WAL (when there is one;
// fsynced when LogSync is set). A backup acks a batch only after its
// own log holds it: the mirror handler writes the batch's records once
// it has applied them, with no coalescing wait, and then replies. With
// no sink the watermark is the
// stream head and the wait returns at once. A batch that fails (backup
// dead, gap, divergence, epoch reject) fails every waiter whose record
// rode in it: commits surface kv.ErrUncertain (the record is in the local
// stream, its effects visible; whether it survives a failover depends
// on whether the batch landed — exactly a lost ack's contract), and
// prepares vote no and abort, emitting the owed decision record.
// Waiters never succeed on a record the backup did not apply, so "an
// acked write survives primary failure" holds unchanged while N
// concurrent writers share each round trip and fsync. Abort decisions
// remain fire-and-forget: the aborter writes its record to the log and
// waits for no ack. Throughput under concurrency scales with the
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
// when LogSync demands it, so no failover can erase it, and every
// write acknowledged to its client is there. Only the primary serves
// reads — a backup answers every client read and write with the usual
// ErrWrongEpoch redirect — and it serves them at a fresh snapshot, so
// reads keep the window.
//
// # Two-phase commit outcome recovery
//
// The replication stream carries three record kinds (kv.ReplRecord),
// not just whole commits, so in-flight two-phase transactions survive
// a primary failure:
//
//   - RecCommit: a whole committed transaction (a one-shot fast
//     commit), which no member records in a transaction table.
//   - RecPrepare: a participant's phase-one vote — the staged ops,
//     compare ops included, and the locks they take, replicated before
//     the yes vote is returned, even when every op is a compare. A
//     promoted backup therefore reconstructs the prepared-transaction
//     table instead of starting empty, and the catch-up of a re-formed
//     backup carries prepared state to it.
//   - RecDecide: the phase-two outcome (commit at a timestamp, or
//     abort) for a previously replicated prepare.
//
// Decisions are remembered in a bounded, time-evicted decided-
// transaction table, making Commit/Abort idempotent: a coordinator
// whose phase-two acknowledgment was lost re-sends the decision — to
// the same server or to a promoted backup — and gets the recorded
// outcome instead of "unknown transaction". A decision is carried out
// by one step (decideLocked) wherever it is taken: the primary's
// Commit and Abort and a replica's RecDecide. Only two-phase outcomes
// enter the table. A fast commit takes and stages its locks as a
// prepare does (lockOps) but enters neither the prepared nor the
// decided table: nothing but itself resolves it, and its client never
// re-sends it, so an entry would only evict an outcome a retried
// decision still needs. Prepares whose decision never arrives are handled by SweepOrphans
// under the epoch rules below; a decided transaction is never swept.
//
// # Epochs and leases
//
// A replication group carries a monotonically increasing configuration
// **epoch** with a membership list (acting primary first). Every
// membership change — promoting a backup after a failure, re-forming
// the group with a fresh member — is an explicit epoch bump made by
// Server.Reconfigure, recorded as a RecEpoch record in the same totally
// ordered replication stream as data (so it is mirrored, resent, and
// WAL-persisted like any commit, and a replayed or caught-up member
// finishes at the epoch the stream left it at). The install detaches,
// in the same critical section, the sender of every member the new list
// does not name, so the primary never counts a quorum over a group its
// lease and clients no longer see. Every other stream record is
// stamped with the epoch in effect when it was emitted, and every
// client request is stamped with the epoch the client believes current.
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
//     every mirror batch the backup accepts extends its authority to
//     send-time + Config.LeaseDuration. The member's sender is the one
//     channel: a member sent nothing for LeaseDuration/3 gets an empty
//     batch (the heartbeat), and a broken member grants nothing more.
//     The backup symmetrically promises (its grant, extended by the
//     replica core's decision to accept the batch and measured from
//     receipt, so the grant always outlasts the authority) not to
//     accept a promotion before the grant expires. A promotion therefore waits
//     out the grant (cluster.promote without force), which guarantees a
//     partitioned stale primary stopped acknowledging reads AND writes
//     before the new epoch acknowledges its first one. Orchestrators
//     that killed the primary themselves may force-promote — fencing
//     by certainty instead of clocks. A sole-member primary needs no
//     lease (no one else could be promoted).
//   - A mirror batch stamped with an older epoch than the replica's is
//     rejected (the sender is a deposed primary); the rejection carries
//     the new configuration, deposing it gracefully — an idle one
//     through its next heartbeat.
//   - An ErrWrongEpoch rejection guarantees the request was NOT
//     executed, so clients retry it safely after adopting the carried
//     membership — including non-idempotent prepares and commits.
//
// The client path takes no lock to apply these rules: the configuration
// in force is published as one immutable view (epoch, members, role, and
// when the epoch came into force), replaced only when it changes, and
// the primary's lease is a deadline stored into that view as monotonic-
// clock nanoseconds, so an ack that moves it allocates nothing.
//
// Epochs also bound the orphan sweep: SweepOrphans may TTL-abort a
// prepare only when the epoch under which it was accepted is provably
// superseded (and a TTL, counted from the later of the prepare and the
// bump, has given the coordinator a redirect window). A prepare whose
// epoch is still current is never unilaterally aborted — a participant
// that times out after its coordinator decided commit would break
// atomicity; within a stable epoch 2PC blocks, safely, and an operator
// can bump the epoch to reap a provably dead coordinator's locks. This
// holds for every store, a sole-member group included.
//
// # Quorum groups
//
// A primary fans each batch out to its backups in parallel (one sender
// and connection per member, each reading the retained tail at its
// member's position), and a record is durable once
// a MAJORITY of the group holds it (and it is fsynced locally when
// LogSync demands it). With rf = 3 one backup ack suffices, so a
// minority of backups down, slow, or broken stalls nothing; only when
// fewer live members remain than a majority requires does the pipeline
// fail fast, surfacing kv.ErrUncertain to in-flight commits.
//
// The lease counts the same majority of the same installed membership,
// over one table (replcore.go), and a promotion without force waits out
// the grants it observed. The two majorities intersect, which is the
// whole safety argument: any
// acknowledged write lives on at least one member of any electing
// majority, and the member chosen by promotion is the MOST CAUGHT-UP
// live member — the orchestrator freezes every live member
// (BeginPromotion), compares stream heads, promotes the maximum, and
// re-joins the rest as backups of the winner (cluster.promote). Each
// loser adopts the new epoch and membership first; the winner's
// Reconfigure installs it and attaches the losers, listed and without a
// sender, as voters, and their senders resend what lies between each
// loser's head and the winner's.
// A member whose history DIVERGED — it holds records at positions the
// winner's stream stamped with a different epoch, the classic
// isolated-old-primary-with-stranded-writes case — is rejected with
// kv.ErrDiverged at every splice point and is rebuilt by a pushed
// snapshot only: a gap reply carries the replica's head, the epoch its
// stream installed there and a checksum of its record below it, and the
// sender resends only if its own retained record there matches both;
// and every applied record must carry the stamp the replica's stream
// installed at its position (replicaCore.record). A configuration
// change at the epoch a replica adopted out of band must carry the
// membership it adopted (replicaCore.configOK), so a deposed primary
// re-forming its own group under the same epoch number collects no ack
// from a loser waiting for its winner's record, nor rebuilds it. A
// snapshot claims its configuration as the one its stream installed, so
// a store whose epoch in force was adopted out of band captures none
// (captureSnapshotLocked): it pushes nothing, and its checkpoint
// truncates the log without rotating the file, so a restart comes back
// at the stream epoch its log installed and still accepts its winner's
// RecEpoch.
//
// # Batched reads
//
// A single read (MethodReadPart) is the batch of one, and
// Server.serveReads serves both: the request carries ONE snapshot for
// its N items, so the epoch, lease and slot admission checks run once
// for the whole request, and a primary that may serve one of the reads
// may serve them all. The per-item reads then take their per-shard
// locks one by one — including the Clock-SI wait on prepared
// transactions — so a batch answers precisely what N single reads at
// the same snapshot would have answered, in one round trip.
//
// # Checkpoints
//
// A store is a function of a prefix of its stream, so the log already
// is the delta: neither a commit nor a checkpoint should cost the size
// of the state to record one cell. Three costs are kept proportional to
// what changed. A version is a base plus the list ops committed since
// it (kv.Layered): a commit appends its ops to an array the versions
// before it share by prefix, and copies nothing of the leaf, on every
// member. Once gatherEvery (16) ops have piled up on a base, the next
// commit rebases: one private copy of the cell header array with the
// ops applied in place, then one copy of the cells' bytes into a single
// allocation, so a leaf stays laid out together and a read overlays at
// most 15 ops. A read copies only the cells of its window, and only
// when a pending op touches it; a read that copies many cells, or once
// the reads of the newest version have looked past as many pending ops
// as it has cells, rebases that version on the spot (Store.ReadPart),
// so a table that is loaded and then read stops overlaying. Rebase points are memory, not
// state: members that rebase at different commits (a backup that
// installed a snapshot mid-chain holds every version as a base) encode
// and digest alike. A version's conflict metadata is its own commit's
// ops, and capture copies pointers under repMu and materializes each
// version off the lock, as it encodes. The ops are applied once per
// commit per member: taking a lock keeps its dry run, and the writes
// among the ops, on the lock and the commit installs them, and a
// replica stages a replicated prepare's value the same way when it
// takes the locks. And the two things a checkpoint
// does are bounded separately, each by what it costs:
//
//   - The stream tail every store retains IN MEMORY — what a mirror
//     resends to a backup that is behind — is bounded by
//     Config.ReplicationLogMaxRecords or, when that is 0, by 64 MiB of
//     estimated record bytes (logMaxBytes). Past the bound the tail is
//     cut to its newest half-cap (truncateLogLocked), which costs a
//     copy of what is kept. A primary enforces the bound inline in its
//     emit-and-apply paths; a live-mirror backup leaves routine
//     truncation to a one-second server ticker, with a hard inline
//     ceiling at four times the cap. The tail is the one copy of the
//     stream a store keeps — no sink queues records of its own — so
//     the bound is on every record in memory, and strict with one
//     exception: a cut never passes the floor, the records the
//     write-ahead log does not hold yet and, from a snapshot push's
//     capture until its member has been sent up to the head, every
//     record from the capture on (replCore.floor), so a push catches
//     up however much is committed meanwhile. A member
//     that lags without a push holds nothing: once a cut passes its
//     position, its sender pushes it a snapshot.
//   - The write-ahead log ON DISK is bounded by the state it describes:
//     at most a snapshot prefix plus as many bytes of records again,
//     about twice the state. Rotating the file (checkpointLocked:
//     capture a consistent snapshot of the full state — every object's
//     version history with conflict metadata, the prepared- and
//     decided-transaction tables, the epoch and membership — tagged
//     with the stream sequence number it covers; drain; write the
//     snapshot to a new file; rename it over the log) rewrites the
//     whole multi-version state, so the policy does it only when a tail
//     bound trips AND the records appended since the file's snapshot
//     prefix (walTailBytes) have reached the size of the state
//     (stateBytes, a running count kept where versions are installed,
//     trimmed and swept). Every byte a rotation writes has then been
//     paid for by a byte of log already written — write amplification
//     of at most 2× — and a restart replays at most a state's worth of
//     records on top of the prefix. (Rotating at every trip would, on
//     a table whose version chains dwarf its tail bound, have each
//     member re-encode ~100 MB of state for ~750 KB of new log.) The
//     explicit Store.Checkpoint rotates unconditionally.
//
// A rotation never holds the encoding in memory: encodeSnapshot hands
// it over a chunk at a time, each chunk becoming one snapshot frame of
// the new file (or one chunk of a push down the mirror). The
// encode and the file write run off repMu, on a goroutine, while
// appends that race them are teed into the new file; a rotation that
// fails or dies part-way leaves the old log as it was. A store without
// a log only truncates.
//
// Consistency of the capture comes from the stream lock: every write
// path, on every store, holds repMu across a record's emission AND the
// application of its effects, so a snapshot taken under repMu always
// equals "every record below repSeq applied, none above" — the
// contract a replica rebuilt from a pushed snapshot needs. Locks whose
// record has not entered the stream yet (a prepare or a fast commit
// still taking them) are skipped (their records arrive in the tail).
//
// A backup whose head is below the truncated log's base, or whose
// history is not a prefix of the primary's stream (kv.ErrDiverged), is
// rebuilt by STATE TRANSFER its sender pushes, as Raft's leader sends
// InstallSnapshot (pushSnapshot): a capture under repMu, streamed in
// chunks as it is encoded, each an otherwise empty mirror batch under
// the batch's epoch and lease rule. On the last chunk the backup
// installs it, replacing its state wholesale and, with a log, rotating
// it; the records since the capture follow from the retained tail,
// which keeps them until the member has been sent up to the head. A
// push cut short installs nothing. A diverged backup's discarded records
// were never held by a majority, so no acknowledged write is lost. A
// late-joining or long-dead replica costs the current state's size
// rather than the primary's full write history.
//
// # Version GC
//
// Superseded versions are trimmed where a version is installed, and
// tombstoned objects swept on a timer, both against a retention horizon
// that is a function of the stream: the highest commit timestamp among
// the records applied so far (Store.streamTS), minus
// Config.RetentionMillis. A member's own clock will not do — reads
// advance it, so members' clocks differ — whereas every member that has
// applied the same records holds the same mark, trims the same versions
// at the same sequence number and sweeps the same tombstones, and
// StateDigest stays equal across a group however long it runs. (One
// corner is left: an OID deleted, swept by some members and not yet by
// others, then written again holds one more version on the members that
// had not swept, until that tombstone is trimmed. The DBT never reuses
// an OID.)
//
// # Invariants and linting
//
// The rules above lean on conventions no compiler checks. The tests
// pin the commit path's: no durability wait happens under repMu, since
// a wait there turns every record into a mirror batch and an fsync of
// its own, which cluster.TestGroupCommitAmortizesMirrorAndFsync (the
// commit and the prepare) and TestInstallDetachesUnnamedMembers
// (InstallEpoch) see. The deliberate bounded waits under repMu (the
// checkpoint drain, the snapshot-install rotation) say so in their doc
// comments. They pin the lock order too: repMu before txMu, the shard
// mutexes and pipe.mu, none of which is held with another (and the
// client path takes none of them), and flushMu, the log's one writer,
// between repMu and pipe.mu. Each inversion that can be written among
// these five hangs tier-1 on every run. The rules whose breach the
// tests do not reliably catch are left to an analyzer suite
// (internal/lint, run as `go run ./cmd/yesqlint ./...`, blocking in CI):
//
//   - errsentinel: errors are classified by errors.Is/errors.As, an
//     error reply after kv.DecodeError has turned its code and detail
//     back into the typed error, never by comparing message text.
//   - timerloop: no per-iteration time.After/NewTimer allocation in
//     wait loops; hoist one reusable timer.
//
// Wire symmetry needs no analyzer: every message, record and snapshot
// element lists its fields once, in a wire method that a wire.Codec
// runs as encoder, decoder and sizer, so the two directions cannot
// disagree, and every decoded count is checked against the bytes left
// before anything is allocated for it. Errors are messages too: a
// failed call is one error reply, whose code (kv.wireErrors pairs each
// with its sentinel) and detail — the server clock, then a
// WrongEpochError, WrongSlotError or CompareError by its own wire
// method — kv.WireErrorCode writes and kv.DecodeError reads. No success
// reply carries a failure, and no client parses an error's text.
package kvserver
