package kvserver

// State snapshots: the state-transfer half of the bounded replication
// log. A snapshot is a consistent copy of everything a replica needs to
// continue the stream from a given sequence number without the records
// below it: every object's version history (with conflict metadata and
// GC floor), the prepared-transaction table (staged ops and locks of
// replicated prepares), the decided-transaction table, and the
// replication-group epoch and membership — tagged with the stream
// sequence number it covers.
//
// Snapshots are captured under repMu. The native write paths hold repMu
// across a record's emission AND the application of its effects, so a
// capture always observes a state that equals "every record below
// repSeq applied, none above" — the exact contract a resyncing replica
// needs to install the snapshot and then replay the log tail from
// snapshot.Seq. Prepares whose RecPrepare has not entered the stream
// yet (rec.replicated false) are deliberately skipped: their records
// land at sequence numbers >= snapshot.Seq and reach the installer
// through the tail.
//
// Two consumers share the format: MethodSnap chunked state transfer to
// a too-far-behind backup (ServeSnapshotChunk / InstallSnapshot), and
// the write-ahead log's checkpoint rotation (a restart replays the
// snapshot frame plus the tail instead of the full history).

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// snapFormat versions the snapshot encoding. Decoders refuse other
// formats loudly — a snapshot is all-or-nothing, there is no "recover
// what parses" for state transfer.
const snapFormat byte = 1

// stateSnapshot is the decoded form of a state snapshot.
type stateSnapshot struct {
	Seq      uint64 // stream position covered: records < Seq are reflected
	Epoch    uint64
	Members  []string
	Clock    clock.Timestamp
	Objects  []snapObject
	Prepared []snapPrepare
	Decided  []snapDecision
}

type snapObject struct {
	OID      kv.OID
	GCFloor  clock.Timestamp
	Versions []snapVersion
}

type snapVersion struct {
	TS         clock.Timestamp
	Val        *kv.Value // nil = tombstone
	Structural bool
	Touched    map[string]struct{}
	// stored is the version a capture took under repMu, set in place of
	// Val and Touched: encoding materializes the value and lists the
	// commit's touches from it, off the lock.
	stored *version
}

type snapPrepare struct {
	TxID  uint64
	Epoch uint64
	TS    clock.Timestamp
	Ops   []*kv.Op
}

type snapDecision struct {
	TxID   uint64
	Commit bool
	TS     clock.Timestamp
}

// captureSnapshotLocked copies the store's full state. Caller holds
// repMu at a point where visible state is consistent with repSeq (the
// end of any emit-and-apply critical section). Versions and op slices
// are aliased, not copied — both are immutable once stored — and a
// version is materialized only when the snapshot is encoded, off the
// lock.
func (s *Store) captureSnapshotLocked() *stateSnapshot {
	sn := &stateSnapshot{Seq: s.repSeq, Clock: s.clock.Now()}
	s.epochMu.Lock()
	sn.Epoch = s.epoch
	sn.Members = append([]string(nil), s.epochMembers...)
	s.epochMu.Unlock()

	type carriedTx struct {
		txid uint64
		rec  *txRecord
	}
	var carried []carriedTx
	s.txMu.Lock()
	for txid, rec := range s.txs {
		if rec.replicated {
			carried = append(carried, carriedTx{txid, rec})
		}
	}
	for txid, d := range s.decided {
		sn.Decided = append(sn.Decided, snapDecision{TxID: txid, Commit: d.commit, TS: d.commitTS})
	}
	s.txMu.Unlock()
	sort.Slice(carried, func(i, j int) bool { return carried[i].txid < carried[j].txid })
	sort.Slice(sn.Decided, func(i, j int) bool { return sn.Decided[i].TxID < sn.Decided[j].TxID })

	// The staged ops and proposed timestamp live on the objects' locks;
	// they are stable here because resolving a prepare (commit, abort,
	// replicated decide) requires repMu, which we hold.
	for _, c := range carried {
		p := snapPrepare{TxID: c.txid, Epoch: c.rec.epoch}
		for _, oid := range c.rec.oids {
			sh := s.shardFor(oid)
			sh.mu.Lock()
			if obj := sh.objs[oid]; obj != nil && obj.lock != nil && obj.lock.txid == c.txid {
				p.TS = obj.lock.proposed
				p.Ops = append(p.Ops, obj.lock.ops...)
			}
			sh.mu.Unlock()
		}
		sn.Prepared = append(sn.Prepared, p)
	}

	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			if len(obj.versions) == 0 {
				// A version-less object exists only as a lock carrier for
				// an in-flight prepare. Carried (replicated) prepares
				// re-create it on install via stageReplicatedPrepare; an
				// uncarried one (its record not yet in the stream, e.g.
				// mid-FastCommit) must NOT be materialized — if that
				// transaction aborts without a stream decision, nothing
				// would ever delete the installer's copy, and the phantom
				// would diverge StateDigest forever.
				continue
			}
			sn.Objects = append(sn.Objects, capturedObject(oid, obj, true))
		}
		sh.mu.Unlock()
	}
	sort.Slice(sn.Objects, func(i, j int) bool { return sn.Objects[i].OID < sn.Objects[j].OID })
	return sn
}

// The fewest bytes each list element of a snapshot takes.
var (
	minSnapObject   = wire.Size(&snapObject{}, func(o *snapObject, c *wire.Codec) { o.wire(c, nil) })
	minSnapVersion  = wire.Size(&snapVersion{}, (*snapVersion).wire)
	minSnapPrepare  = wire.Size(&snapPrepare{}, (*snapPrepare).wire)
	minSnapDecision = wire.Size(&snapDecision{}, (*snapDecision).wire)
)

// wire is the canonical snapshot layout shared by MethodSnap transfers
// and write-ahead-log checkpoint frames. flush, if not nil, runs after
// each version, each prepare and at the end: encodeSnapshot drains the
// codec there.
func (sn *stateSnapshot) wire(c *wire.Codec, flush func()) {
	format := snapFormat
	c.Byte(&format)
	if format != snapFormat {
		c.Fail(fmt.Errorf("%w: snapshot format %d (want %d): written by an incompatible version", kv.ErrBadRequest, format, snapFormat))
	}
	c.Uvarint(&sn.Seq)
	c.Uvarint(&sn.Epoch)
	c.Strings(&sn.Members)
	wire.U64(c, &sn.Clock)
	wire.Slice(c, &sn.Objects, minSnapObject)
	for i := range sn.Objects {
		sn.Objects[i].wire(c, flush)
	}
	wire.Slice(c, &sn.Prepared, minSnapPrepare)
	for i := range sn.Prepared {
		sn.Prepared[i].wire(c)
		if flush != nil {
			flush()
		}
	}
	wire.Slice(c, &sn.Decided, minSnapDecision)
	for i := range sn.Decided {
		sn.Decided[i].wire(c)
	}
	if flush != nil {
		flush()
	}
}

func (o *snapObject) wire(c *wire.Codec, flush func()) {
	wire.U64(c, &o.OID)
	wire.U64(c, &o.GCFloor)
	wire.Slice(c, &o.Versions, minSnapVersion)
	for i := range o.Versions {
		o.Versions[i].wire(c)
		if flush != nil {
			flush()
		}
	}
}

// capturedObject copies obj's versions for a capture: the stored
// versions themselves, which are immutable, with (conflict) or without
// their conflict metadata. Caller holds the shard mutex.
func capturedObject(oid kv.OID, obj *object, conflict bool) snapObject {
	vs := slices.Clone(obj.versions)
	o := snapObject{OID: oid, GCFloor: obj.gcFloor, Versions: make([]snapVersion, len(vs))}
	for i := range vs {
		v := &vs[i]
		if !conflict {
			v.structural, v.commit = false, nil
		}
		o.Versions[i] = snapVersion{TS: v.ts, Structural: v.structural, stored: v}
	}
	return o
}

func (v *snapVersion) wire(c *wire.Codec) {
	wire.U64(c, &v.TS)
	val := v.Val
	if v.stored != nil {
		scratch := scratchValues.Get().(*kv.Value)
		defer scratchValues.Put(scratch)
		val = v.stored.val.ValueInto(scratch)
	}
	kv.WireValue(&val, c)
	if c.Decoding() {
		v.Val = val
	}
	c.Bool(&v.Structural)
	var keys [][]byte
	if !c.Decoding() {
		// Sorted so equal states encode equally; here, off the stream lock.
		keys = v.touchedKeys()
	}
	wire.Slice(c, &keys, wire.MinLen)
	for i := range keys {
		c.Bytes(&keys[i])
	}
	if len(keys) > 0 && c.Decoding() {
		v.Touched = make(map[string]struct{}, len(keys))
		for _, k := range keys {
			v.Touched[string(k)] = struct{}{}
		}
	}
}

// scratchValues lends snapshot encoders the value a captured version is
// materialized into (kv.Layered.ValueInto), so that encoding a state
// allocates no copy of each version's cells.
var scratchValues = sync.Pool{New: func() any { return new(kv.Value) }}

// touchedKeys lists, sorted and once each, the cells and attributes the
// version's commit touched (kv.Op.CommutativeTouch).
func (v *snapVersion) touchedKeys() [][]byte {
	var keys [][]byte
	if v.stored != nil {
		for _, op := range v.stored.commit {
			if k, ok := op.CommutativeTouch(); ok {
				keys = append(keys, k)
			}
		}
	} else {
		for k := range v.Touched {
			keys = append(keys, []byte(k))
		}
	}
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

// touchOps rebuilds a version's conflict metadata from a snapshot's
// touched set: one op per key whose CommutativeTouch is that key, which
// conflicts exactly as the commit it stands for did.
func touchOps(touched map[string]struct{}) []*kv.Op {
	var ops []*kv.Op
	for k := range touched {
		ops = append(ops, &kv.Op{Kind: kv.OpListAdd, Cell: kv.Cell{Key: []byte(k)}})
	}
	return ops
}

func (p *snapPrepare) wire(c *wire.Codec) {
	c.Uint64(&p.TxID)
	c.Uvarint(&p.Epoch)
	wire.U64(c, &p.TS)
	kv.WireOps(&p.Ops, c)
}

func (d *snapDecision) wire(c *wire.Codec) {
	c.Uint64(&d.TxID)
	c.Bool(&d.Commit)
	wire.U64(c, &d.TS)
}

// encodeSnapshot serializes sn, handing the encoding to emit in
// consecutive pieces of exactly chunk bytes (the last may be shorter),
// each valid only during the call. Nothing is sized by the state: one
// version at a time is encoded and copied into the piece being filled,
// so producing the encoding takes one chunk of memory plus the largest
// value.
func encodeSnapshot(sn *stateSnapshot, chunk int, emit func([]byte) error) error {
	// Allocated whole (append would allocate several times its size on
	// the way up), unless chunk is beyond what a state is likely to fill.
	piece := make([]byte, 0, min(chunk, 1<<20))
	var emitErr error
	c := wire.NewEncoder(1 << 12)
	b := c.Buffer()
	// spill moves the encoded bytes into the piece, emitting it as it fills.
	sn.wire(&c, func() {
		p := b.Bytes()
		for len(p) > 0 && emitErr == nil {
			n := min(chunk-len(piece), len(p))
			piece = append(piece, p[:n]...)
			p = p[n:]
			if len(piece) == chunk {
				emitErr = emit(piece)
				piece = piece[:0]
			}
		}
		b.Reset()
	})
	if emitErr == nil && len(piece) > 0 {
		emitErr = emit(piece)
	}
	return emitErr
}

// decodeSnapshot is the inverse of encodeSnapshot.
func decodeSnapshot(p []byte) (*stateSnapshot, error) {
	return wire.Decode(p, kv.ErrBadRequest, func(sn *stateSnapshot, c *wire.Codec) { sn.wire(c, nil) })
}

// InstallSnapshot replaces this store's entire state with the encoded
// snapshot: objects and version histories, the prepared- and decided-
// transaction tables, the epoch and membership, and the stream position
// (repSeq becomes the sequence the snapshot covers). Existing state is
// discarded — the caller is a replica whose history is a stale prefix
// of the snapshot source's stream — and any blocked readers are woken.
// The write-ahead log, if any, is rotated onto the snapshot so a later
// restart replays snapshot + tail. Buffered resync records below the
// snapshot's coverage are dropped; those continuing the stream are
// applied.
func (s *Store) InstallSnapshot(enc []byte) error {
	sn, err := decodeSnapshot(enc)
	if err != nil {
		return err
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.installSnapshotLocked(sn)
}

// InstallSnapshotDiscardingTail installs a snapshot even when it lies
// behind this replica's stream head — the state-transfer path for a
// replica whose history DIVERGED from the group's (kv.ErrDiverged):
// an old primary that kept appending records its group never saw. Its
// stranded suffix — every record above the snapshot's coverage — is
// abandoned wholesale, along with its epoch stamps and any buffered
// out-of-order records; a diverged history is replaced, never merged
// record-wise. The ordinary InstallSnapshot refuses to move the
// stream backwards precisely so that only this explicit path can.
func (s *Store) InstallSnapshotDiscardingTail(enc []byte) error {
	sn, err := decodeSnapshot(enc)
	if err != nil {
		return err
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if sn.Seq < s.repSeq {
		s.repSeq = sn.Seq
		s.streamEpoch = 0
		clear(s.pending)
	}
	return s.installSnapshotLocked(sn)
}

// installSnapshotLocked implements InstallSnapshot; OpenStore also uses
// it to replay a write-ahead log's checkpoint frame into a fresh store
// (which has no log open yet, so nothing is rotated). Caller holds
// repMu.
//
//yesqlint:allow repmublock -- deliberate: replacing the whole visible state must exclude concurrent stream applies, and the inline WAL rotation/close is bounded local file work, never a network call
func (s *Store) installSnapshotLocked(sn *stateSnapshot) error {
	if sn.Seq < s.repSeq {
		return fmt.Errorf("%w: snapshot covers seq %d but this replica is already at %d: refusing to move the stream backwards", kv.ErrBadRequest, sn.Seq, s.repSeq)
	}
	// Wipe: release every lock (waking blocked readers into a retry
	// against the installed state) and drop all object and transaction
	// state. The snapshot is the new truth.
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for _, obj := range sh.objs {
			if obj.lock != nil {
				close(obj.lock.done)
				obj.lock = nil
			}
		}
		sh.objs = make(map[kv.OID]*object)
		sh.mu.Unlock()
	}
	s.stateBytes.Store(0)
	var maxTS clock.Timestamp // highest version or decided-commit timestamp held
	now := time.Now()
	s.txMu.Lock()
	s.txs = make(map[uint64]*txRecord)
	s.decided = make(map[uint64]decision)
	s.decidedQ = nil
	for _, d := range sn.Decided {
		s.decided[d.TxID] = decision{commit: d.Commit, commitTS: d.TS}
		s.decidedQ = append(s.decidedQ, decidedEntry{txid: d.TxID, at: now})
		if d.Commit && d.TS > maxTS {
			maxTS = d.TS
		}
	}
	s.txMu.Unlock()

	for i := range sn.Objects {
		o := &sn.Objects[i]
		sh := s.shardFor(o.OID)
		sh.mu.Lock()
		obj := &object{gcFloor: o.GCFloor, versions: make([]version, 0, len(o.Versions))}
		for j := range o.Versions {
			v := &o.Versions[j]
			ver := version{ts: v.TS, val: kv.NewLayered(v.Val), structural: v.Structural}
			if !v.Structural {
				ver.commit = touchOps(v.Touched)
			}
			s.stateBytes.Add(int64(ver.size()))
			obj.versions = append(obj.versions, ver)
			if v.TS > maxTS {
				maxTS = v.TS
			}
		}
		sh.objs[o.OID] = obj
		sh.mu.Unlock()
	}
	for i := range sn.Prepared {
		p := &sn.Prepared[i]
		rec := kv.ReplRecord{Kind: kv.RecPrepare, Epoch: p.Epoch, TxID: p.TxID, TS: p.TS, Ops: p.Ops}
		if err := s.stageReplicatedPrepare(rec); err != nil {
			return fmt.Errorf("kvserver: installing snapshot prepare for tx %d: %w", p.TxID, err)
		}
	}

	s.clock.Observe(sn.Clock)
	s.repSeq = sn.Seq
	// Version GC resumes from the mark the source had at sn.Seq: the
	// record with the highest commit timestamp left the newest version of
	// whatever it wrote, which no trim or sweep has removed yet.
	s.streamTS.Store(uint64(maxTS))
	s.commitLog = nil
	s.commitLogBytes = 0
	s.logBase = sn.Seq
	if sn.Epoch > s.streamEpoch {
		// The snapshot's coverage includes every RecEpoch below its seq;
		// its epoch is what the stream had installed there.
		s.streamEpoch = sn.Epoch
	}
	s.installEpochState(sn.Epoch, append([]string(nil), sn.Members...))
	// Rotate the WAL onto the snapshot before draining buffered records,
	// so their (best-effort) appends land in the new file's tail. A
	// rotation that never swapped files fails the install AND disables
	// the log: the old file holds this replica's pre-install history,
	// and if the orchestrator left this store attached as a mirror
	// despite the error, best-effort appends of post-install records
	// after that stale prefix would replay as a silent semantic splice
	// on restart — no log at all (the old file replays as a plain stale
	// prefix, which a later resync repairs) is strictly safer. A swap
	// whose only failure was the directory fsync proceeds — the WAL at
	// the path IS the snapshot file, and the in-memory install is
	// already complete; the durability doubt is counted, not fatal.
	if s.wal != nil {
		// Quiesce the pipeline first: queued (and in-flight) batched
		// appends hold records below the snapshot's coverage; teed into
		// the rotated file they would replay on top of a snapshot that
		// already contains their effects. The snapshot subsumes them, so
		// they are dropped, not written.
		s.discardWALLocked()
		if swapped, err := s.wal.rotate(snapshotFrames(sn)); err != nil {
			s.stats.CheckpointFailures.Add(1)
			if !swapped {
				s.wal.close()
				s.wal = nil
				s.pipe.mu.Lock()
				s.pipe.needWAL = false
				s.pipe.wal = nil
				s.pipe.completeWaitersLocked()
				s.pipe.mu.Unlock()
				return fmt.Errorf("kvserver: rotating log onto installed snapshot (write-ahead logging disabled on this replica): %w", err)
			}
		}
		s.pipe.mu.Lock()
		if sn.Seq > s.pipe.synced {
			s.pipe.synced = sn.Seq
		}
		s.pipe.mu.Unlock()
	}
	// The log (rotated just now, or being replayed by OpenStore) begins at
	// this snapshot, and any rotation that was in flight has finished.
	s.walTailBytes.Store(0)
	for seq := range s.pending {
		if seq < s.repSeq {
			delete(s.pending, seq)
		}
	}
	for {
		rec, ok := s.pending[s.repSeq]
		if !ok {
			break
		}
		delete(s.pending, s.repSeq)
		if err := s.applyRecordLocked(rec); err != nil {
			return err
		}
	}
	s.stats.SnapshotsInstalled.Add(1)
	return nil
}

// snapSession is one in-progress state transfer: a consistent encoded
// snapshot, held as the chunks it is served in (never one contiguous
// buffer). lastUsed advances on every served chunk, so the idle TTL
// never expires a transfer that is actively (if slowly) making progress.
type snapSession struct {
	seq      uint64
	chunks   [][]byte
	lastUsed time.Time
}

const (
	// snapSessionTTL bounds how long an IDLE transfer may hold its
	// snapshot copy in memory (measured since the last served chunk, so
	// a slow but progressing transfer is never cut off mid-install);
	// snapSessionMax caps concurrent transfers (the least recently
	// active is evicted beyond it — its installer gets a loud "expired
	// session" and restarts).
	snapSessionTTL = 2 * time.Minute
	snapSessionMax = 4
)

// SweepSnapshotSessions drops expired state-transfer sessions — an
// abandoned transfer (its installer crashed) must not pin an O(state)
// snapshot copy until the next transfer begins. The server's
// checkpoint ticker runs it.
func (s *Store) SweepSnapshotSessions() {
	s.snapMu.Lock()
	s.expireSnapSessionsLocked(time.Now())
	s.snapMu.Unlock()
}

// expireSnapSessionsLocked is the single TTL-eviction policy, shared
// by the sweeper, the serving path, and session creation. Caller holds
// snapMu.
func (s *Store) expireSnapSessionsLocked(now time.Time) {
	for id, sess := range s.snapSessions {
		if now.Sub(sess.lastUsed) > snapSessionTTL {
			delete(s.snapSessions, id)
		}
	}
}

// ServeSnapshotChunk serves one chunk of a state snapshot to a
// resyncing peer. id 0 begins a transfer: a fresh snapshot is captured
// at the current stream head and cached under a new session id; the
// caller fetches the remaining chunks with that id. Chunks of one
// session slice a single consistent snapshot; an unknown or expired
// session is a loud error (the caller restarts the transfer) rather
// than a risk of splicing two states.
func (s *Store) ServeSnapshotChunk(id uint64, chunk uint32) (outID, seq uint64, chunks uint32, data []byte, err error) {
	// Share a session already covering the current head: concurrent
	// cold-joiners (an idle source, or several peers starting at once) then
	// read one immutable encoded snapshot instead of capturing per peer and
	// evicting each other past the session cap. Sessions are immutable, so
	// sharing is read-only safe. Captures are single-flighted per head —
	// simultaneous first requests wait for one capture instead of each
	// paying the O(state) pass and thrashing the session table.
	for id == 0 {
		// Re-read the window each iteration: under ongoing writes a
		// capture lands above the head its waiters recorded, and a stale
		// comparison would send every waiter into its own capture. Any
		// session at or above logBase is shareable — the log tail
		// continues from its seq — so concurrent joiners converge on the
		// newest one.
		base, head := s.LogBounds()
		now := time.Now()
		s.snapMu.Lock()
		s.expireSnapSessionsLocked(now)
		for sid, sess := range s.snapSessions {
			if sess.seq >= base && (id == 0 || sess.seq > s.snapSessions[id].seq) {
				id = sid
			}
		}
		if id != 0 {
			s.snapSessions[id].lastUsed = now
			s.snapMu.Unlock()
			break
		}
		if ch, busy := s.snapCapturing[head]; busy {
			// Another request is capturing this head: wait for its
			// session, then re-check.
			s.snapMu.Unlock()
			<-ch
			continue
		}
		done := make(chan struct{})
		s.snapCapturing[head] = done
		s.snapMu.Unlock()

		s.repMu.Lock()
		sn := s.captureSnapshotLocked()
		s.repMu.Unlock()
		// Serialize outside the stream lock: the capture is a
		// private copy (values aliased but immutable), and encoding
		// is a second O(state) pass the write paths need not wait
		// for.
		var chunks [][]byte
		_ = encodeSnapshot(sn, snapChunkBytes, func(piece []byte) error {
			chunks = append(chunks, append([]byte(nil), piece...))
			return nil
		})
		now = time.Now()
		s.snapMu.Lock()
		delete(s.snapCapturing, head)
		close(done)
		s.expireSnapSessionsLocked(now)
		for len(s.snapSessions) >= snapSessionMax {
			oldest, oldestAt := uint64(0), now
			for sid, sess := range s.snapSessions {
				if oldest == 0 || sess.lastUsed.Before(oldestAt) {
					oldest, oldestAt = sid, sess.lastUsed
				}
			}
			delete(s.snapSessions, oldest)
		}
		s.snapLastID++
		id = s.snapLastID
		s.snapSessions[id] = &snapSession{seq: sn.Seq, chunks: chunks, lastUsed: now}
		s.snapMu.Unlock()
		s.stats.SnapshotsServed.Add(1)
	}
	s.snapMu.Lock()
	// Enforce the TTL on the serving path too, not only when a new
	// transfer's eviction sweep happens to run — and mark this session
	// live, so an active transfer never expires mid-install.
	s.expireSnapSessionsLocked(time.Now())
	sess := s.snapSessions[id]
	if sess != nil {
		sess.lastUsed = time.Now()
	}
	s.snapMu.Unlock()
	if sess == nil {
		return 0, 0, 0, nil, fmt.Errorf("%w %d: restart the transfer", kv.ErrSnapSessionExpired, id)
	}
	total := uint32(len(sess.chunks))
	if chunk >= total {
		return 0, 0, 0, nil, fmt.Errorf("%w: snapshot chunk %d of %d", kv.ErrBadRequest, chunk, total)
	}
	return id, sess.seq, total, sess.chunks[chunk], nil
}
