package kvserver

// Slot migration: the store-side half of moving a directory route from
// one replica group to another (internal/cluster orchestrates the
// protocol; see its package comment for the full fencing argument).
//
// The source side exports a consistent bulk capture of one route's
// objects (CaptureRoute, taken under repMu at a recorded stream head)
// plus the retained log tail (MigrationRecords) so the orchestrator can
// stream the live delta while writes continue. The destination side
// ingests both through its OWN replication stream: every migrated
// version is re-emitted as an ordinary RecCommit record (a synthetic
// transaction id with the high bit set), so the destination's backups
// converge through the normal mirror/sync machinery and no new record
// kind is needed on the wire. Ingest is idempotent: a version whose timestamp is at
// or below the object's newest is skipped BEFORE emission, so a
// restarted migration (new bulk capture overlapping an already-applied
// tail) never double-applies on the primary or its backups.
//
// The write fence is the directory itself: InstallDirectory takes repMu,
// and the write paths re-check route ownership under repMu immediately
// before emitting (fencedOIDsLocked), so every stream record is totally
// ordered against the fence — emitted entirely before it (the tail
// delivers it to the destination) or rejected with the typed
// WrongSlotError after it. Decisions for already-replicated prepares
// are deliberately NOT fenced: their prepare is in the stream below the
// fence, the destination stages it from the tail, and the decision
// rides the same tail.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// InstallDirectory installs d (deep-copied) as this store's slot
// directory and records the store's own group index within it,
// reporting whether the install happened (a version at or below the
// current one is a no-op — directories, like epochs, never move
// backwards). Taking repMu orders the install against every record
// emission: a route moved away by d is fenced exactly at this point in
// the stream.
func (s *Store) InstallDirectory(d *kv.Directory, groupIdx uint32) bool {
	d = d.Clone()
	s.repMu.Lock()
	defer s.repMu.Unlock()
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if d.Version <= s.dir.Version {
		return false
	}
	if len(s.routeLoad) != len(d.Routes) {
		// Route count changes only at formation (the cluster's
		// directory replacing the one-route birth directory, or an
		// elastic one replacing the identity one); new counters start
		// cold.
		s.routeLoad = make([]atomic.Uint64, len(d.Routes))
	}
	s.dir = d
	s.dirGroup = groupIdx
	return true
}

// Directory returns the installed slot directory. The
// returned value is shared and must be treated as read-only — installs
// replace the pointer, never mutate in place.
func (s *Store) Directory() *kv.Directory {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	return s.dir
}

// DirVersion returns the installed directory's version (0 = the birth
// directory), the value every Ack piggybacks.
func (s *Store) DirVersion() uint64 {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	return s.dir.Version
}

// CheckClientSlot gates a client operation on oid behind the slot
// directory: if oid's route is owned by
// another group, the typed WrongSlotError (carrying the directory
// version and the owner) rejects it — a guarantee the operation was not
// executed. On success the route's load counter is bumped — the
// rebalancer's donor-selection signal.
func (s *Store) CheckClientSlot(oid kv.OID) error {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	route := s.dir.RouteFor(oid)
	if s.dir.Routes[route] != s.dirGroup {
		return s.wrongSlotLocked(route)
	}
	s.routeLoad[route].Add(1)
	return nil
}

// wrongSlotLocked builds the typed rejection carrying the current
// directory version and the route's owning group. Caller holds dirMu.
func (s *Store) wrongSlotLocked(route uint32) *kv.WrongSlotError {
	s.stats.WrongSlotRejects.Add(1)
	owner := s.dir.Routes[route]
	var members []string
	if int(owner) < len(s.dir.Groups) {
		members = append([]string(nil), s.dir.Groups[owner]...)
	}
	return &kv.WrongSlotError{Version: s.dir.Version, Route: route, Group: owner, Members: members}
}

// fencedOIDsLocked is the write-path fence: it re-checks route
// ownership for every OID a transaction writes, under repMu, so the
// check and the subsequent record emission are one atomic point in the
// stream relative to InstallDirectory. Returns nil when every route is
// owned. Caller holds repMu.
func (s *Store) fencedOIDsLocked(oids []kv.OID) *kv.WrongSlotError {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	for _, oid := range oids {
		route := s.dir.RouteFor(oid)
		if s.dir.Routes[route] != s.dirGroup {
			return s.wrongSlotLocked(route)
		}
	}
	return nil
}

// RouteLoad returns a copy of the per-route client-operation counters.
func (s *Store) RouteLoad() []uint64 {
	s.dirMu.Lock()
	loads := s.routeLoad
	s.dirMu.Unlock()
	out := make([]uint64, len(loads))
	for i := range loads {
		out[i] = loads[i].Load()
	}
	return out
}

// SlotDigest returns a deterministic digest of one route's CURRENT
// state: for every object whose slot maps to route (slot % nroutes),
// the OID and the newest version's timestamp and encoded value,
// XOR-combined like StateDigest. Unlike StateDigest it hashes only the
// newest version of each object: version-history depth differs across
// replicas of DIFFERENT groups (the destination replays old history at
// ingest time, so its retention trims can cut differently than the
// source's incremental ones), while the newest version — the state
// every acknowledged write resolves to — is never trimmed. Migration
// cutover compares source and destination SlotDigests; a mismatch means
// an acked write was lost or duplicated in transfer.
func (s *Store) SlotDigest(route, nroutes uint32) uint64 {
	var total uint64
	var tsb [8]byte
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			if uint32(oid.Slot())%nroutes != route || len(obj.versions) == 0 {
				continue
			}
			newest := obj.versions[len(obj.versions)-1]
			h := fnv.New64a()
			binary.BigEndian.PutUint64(tsb[:], uint64(oid))
			h.Write(tsb[:])
			binary.BigEndian.PutUint64(tsb[:], uint64(newest.ts))
			h.Write(tsb[:])
			b := wire.NewBuffer(newest.val.EncodedSize())
			kv.EncodeValue(b, newest.val.Value())
			h.Write(b.Bytes())
			total ^= h.Sum64()
		}
		sh.mu.Unlock()
	}
	return total
}

// migFormat versions the route-capture encoding (CaptureRoute /
// IngestMigratedObjects). Like snapshots, a capture is all-or-nothing.
// Version 2 lays captured objects out as snapshots do.
const migFormat byte = 2

// MigPrepare is a replicated in-flight prepare touching a captured
// route: the orchestrator seeds its pending-transaction map with these,
// so a decision arriving in the tail can be applied on the destination
// even though the prepare record itself sits below the capture head.
type MigPrepare struct {
	TxID uint64
	TS   clock.Timestamp
	Ops  []*kv.Op // filtered to the captured route's OIDs
}

func (p *MigPrepare) wire(c *wire.Codec) {
	c.Uint64(&p.TxID)
	wire.U64(c, &p.TS)
	kv.WireOps(&p.Ops, c)
}

var minMigPrepare = wire.Size(&MigPrepare{}, (*MigPrepare).wire)

// routeCapture is what CaptureRoute encodes: the source stream head the
// capture covers, the route (informational), the route's objects and its
// in-flight prepares.
type routeCapture struct {
	head, route, nroutes uint64
	objs                 []snapObject
	preps                []MigPrepare
}

func (rc *routeCapture) wire(c *wire.Codec) {
	format := migFormat
	c.Byte(&format)
	if format != migFormat {
		c.Fail(fmt.Errorf("%w: route capture format %d (want %d)", kv.ErrBadRequest, format, migFormat))
	}
	c.Uvarint(&rc.head)
	c.Uvarint(&rc.route)
	c.Uvarint(&rc.nroutes)
	wire.Slice(c, &rc.objs, minSnapObject)
	for i := range rc.objs {
		rc.objs[i].wire(c, nil)
	}
	wire.Slice(c, &rc.preps, minMigPrepare)
	for i := range rc.preps {
		rc.preps[i].wire(c)
	}
}

// CaptureRoute captures one route's objects (and the route-touching
// replicated prepares) at the current stream head, returning the
// canonical encoding and the head sequence number: records below head
// are fully reflected in the capture, records at or above it are the
// live tail the orchestrator streams afterwards. The capture itself is
// pure in-memory copying under repMu (versions are immutable and
// aliased, not copied), and the encoding, which materializes them, runs
// after it; callers must wait for head's durability (WaitSeqDurable)
// before ingesting, so a failover on the source can never retract
// captured state the destination already holds.
func (s *Store) CaptureRoute(route, nroutes uint32) (enc []byte, head uint64, err error) {
	s.repMu.Lock()
	head = s.repSeq

	onRoute := func(oid kv.OID) bool { return uint32(oid.Slot())%nroutes == route }

	var objs []snapObject
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			if !onRoute(oid) || len(obj.versions) == 0 {
				// Version-less objects are lock carriers for in-flight
				// prepares; replicated ones are exported below, the rest
				// must not materialize (same rule as captureSnapshotLocked).
				continue
			}
			objs = append(objs, capturedObject(oid, obj, false))
		}
		sh.mu.Unlock()
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].OID < objs[j].OID })

	var preps []MigPrepare
	s.txMu.Lock()
	type carried struct {
		txid uint64
		rec  *txRecord
	}
	var cs []carried
	for txid, rec := range s.txs {
		if !rec.replicated {
			continue
		}
		for _, oid := range rec.oids {
			if onRoute(oid) {
				cs = append(cs, carried{txid, rec})
				break
			}
		}
	}
	s.txMu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].txid < cs[j].txid })
	// Staged ops live on the objects' locks and are stable under repMu
	// (resolving a prepare requires it).
	for _, c := range cs {
		p := MigPrepare{TxID: c.txid}
		for _, oid := range c.rec.oids {
			if !onRoute(oid) {
				continue
			}
			sh := s.shardFor(oid)
			sh.mu.Lock()
			if obj := sh.objs[oid]; obj != nil && obj.lock != nil && obj.lock.txid == c.txid {
				p.TS = obj.lock.proposed
				p.Ops = append(p.Ops, obj.lock.ops...)
			}
			sh.mu.Unlock()
		}
		if len(p.Ops) > 0 {
			preps = append(preps, p)
		}
	}

	s.repMu.Unlock()

	rc := &routeCapture{head: head, route: uint64(route), nroutes: uint64(nroutes), objs: objs, preps: preps}
	return wire.Encode(rc, (*routeCapture).wire), head, nil
}

// IngestMigratedObjects installs a route capture on a migration
// destination: every captured version is re-emitted through THIS
// store's replication stream as an ordinary RecCommit (full-value put,
// or delete for a tombstone) and applied in timestamp order, so the
// destination's backups converge through the normal mirror path.
// Versions at or below an object's newest are skipped before emission
// (idempotent restart). It returns the SOURCE stream head the capture
// covers — the tail cursor — and the route-touching prepares in flight
// at capture time, which the orchestrator holds until their decisions
// arrive in the tail.
//
// Conflict metadata is deliberately lossy: migrated versions install as
// structural full-value writes, and the source's GC floor lands only on
// this primary (the floor is not expressible as a stream record). Both
// only make destination conflict checks more conservative or — after a
// destination failover — marginally less so for pre-migration
// snapshots; values, timestamps, and digests are exact.
func (s *Store) IngestMigratedObjects(enc []byte) (srcHead uint64, preps []MigPrepare, err error) {
	rc, err := wire.Decode(enc, kv.ErrBadRequest, (*routeCapture).wire)
	if err != nil {
		return 0, nil, err
	}
	// All versions are emitted under one repMu hold and waited durable
	// ONCE: a per-version durability wait puts a destination-group
	// round trip behind each of a bulk capture's (possibly hundreds of
	// thousands of) versions, and a tail that cannot outpace the live
	// workload never converges.
	s.repMu.Lock()
	var lastSeq uint64
	emitted := false
	for i := range rc.objs {
		o := &rc.objs[i]
		for _, v := range o.Versions {
			op := &kv.Op{Kind: kv.OpPut, OID: o.OID, Value: v.Val}
			if v.Val == nil {
				op = &kv.Op{Kind: kv.OpDelete, OID: o.OID}
			}
			if seq, ok := s.ingestCommitLocked(v.TS, []*kv.Op{op}); ok {
				lastSeq, emitted = seq, true
			}
		}
		if o.GCFloor > 0 {
			sh := s.shardFor(o.OID)
			sh.mu.Lock()
			if obj := sh.objs[o.OID]; obj != nil && o.GCFloor > obj.gcFloor {
				obj.gcFloor = o.GCFloor
			}
			sh.mu.Unlock()
		}
	}
	s.repMu.Unlock()
	if emitted {
		if err := s.waitReplicated(lastSeq); err != nil {
			return 0, nil, fmt.Errorf("kvserver: replicating migrated objects: %w", err)
		}
	}
	return rc.head, rc.preps, nil
}

// MigCommit is one live-tail transaction's route-filtered ops, queued
// for batched ingestion on a migration destination.
type MigCommit struct {
	TS  clock.Timestamp
	Ops []*kv.Op
}

// IngestMigratedCommit applies one live-tail transaction's
// route-filtered ops on a migration destination, re-emitted through
// this store's stream like IngestMigratedObjects. Idempotent by the
// same per-object newest-timestamp skip.
func (s *Store) IngestMigratedCommit(ts clock.Timestamp, ops []*kv.Op) error {
	return s.IngestMigratedCommits([]MigCommit{{TS: ts, Ops: ops}})
}

// IngestMigratedCommits applies a batch of live-tail transactions in
// order under one stream-lock hold and waits the whole prefix durable
// once. Batching is what lets the migration tail outrun the live
// workload: durability is a destination-group round trip, so paying it
// per record caps the tail at the mirror RTT while the source keeps
// accepting writes at full speed.
func (s *Store) IngestMigratedCommits(commits []MigCommit) error {
	s.repMu.Lock()
	var lastSeq uint64
	emitted := false
	for _, c := range commits {
		if seq, ok := s.ingestCommitLocked(c.TS, c.Ops); ok {
			lastSeq, emitted = seq, true
		}
	}
	s.repMu.Unlock()
	if !emitted {
		return nil
	}
	if err := s.waitReplicated(lastSeq); err != nil {
		return fmt.Errorf("kvserver: replicating migrated commit: %w", err)
	}
	return nil
}

// ingestCommitLocked emits and applies one migrated commit; the caller
// holds repMu and is responsible for waiting the returned sequence
// durable. Ops whose object already has a version at or newer than ts
// are dropped before emission; if none survive, nothing is emitted and
// ok is false.
func (s *Store) ingestCommitLocked(ts clock.Timestamp, ops []*kv.Op) (seq uint64, ok bool) {
	s.clock.Observe(ts)
	fresh := ops[:0:0]
	for _, op := range ops {
		sh := s.shardFor(op.OID)
		sh.mu.Lock()
		obj := sh.objs[op.OID]
		newest := clock.Timestamp(0)
		if obj != nil && len(obj.versions) > 0 {
			newest = obj.versions[len(obj.versions)-1].ts
		}
		sh.mu.Unlock()
		if ts > newest {
			fresh = append(fresh, op)
		}
	}
	if len(fresh) == 0 {
		return 0, false
	}
	// The synthetic transaction id (high bit set, low bits the record's
	// own sequence number) is unique per stream and can never collide
	// with a client transaction id in the decided table.
	txid := uint64(1)<<63 | s.repSeq
	seq = s.emitLocked(kv.ReplRecord{Kind: kv.RecCommit, TxID: txid, TS: ts, Ops: fresh})
	s.applyCommittedOpsLocked(ts, fresh)
	s.recordDecision(txid, decision{commit: true, commitTS: ts, replSeq: seq + 1})
	s.stats.MigratedVersions.Add(uint64(len(fresh)))
	s.maybeCheckpointLocked()
	return seq, true
}

// MigrationRecords returns up to max retained-log records starting at
// from, exactly like SyncRecords but WITHOUT the requester-epoch
// divergence check: the migration orchestrator reads the source group's
// own stream in-process (its cursor came from this group's
// CaptureRoute), so cross-history splices are impossible by
// construction. A from below logBase returns an empty batch with
// base > from — the history was truncated and the orchestrator must
// restart from a fresh capture (ingest idempotence makes that safe).
func (s *Store) MigrationRecords(from uint64, max int) (recs []kv.SyncRec, head, base uint64, err error) {
	if max <= 0 {
		max = 512
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if from > s.repSeq {
		return nil, s.repSeq, s.logBase, fmt.Errorf("%w: migration cursor %d is beyond this replica's head %d", kv.ErrDiverged, from, s.repSeq)
	}
	return s.retainedLocked(from, max), s.repSeq, s.logBase, nil
}

// WaitSeqDurable blocks until every stream record below head has
// cleared the durability watermark (majority-acked ∧ fsynced). The
// migration orchestrator calls it before ingesting captured or tailed
// state into the destination: a source failover can only retract
// records above the watermark, so nothing the destination ingests can
// ever be un-written on the source group.
func (s *Store) WaitSeqDurable(head uint64) error {
	if head == 0 {
		return nil
	}
	return s.waitReplicated(head - 1)
}

// HasPreparedOnRoute reports whether any in-flight prepared transaction
// writes an OID on the given route — the migration drain condition
// after the fence: once the fence is up no NEW route-touching prepare
// can enter (fencedOIDsLocked), so a false result is stable and the
// stream head is final for the route.
func (s *Store) HasPreparedOnRoute(route, nroutes uint32) bool {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	for _, rec := range s.txs {
		for _, oid := range rec.oids {
			if uint32(oid.Slot())%nroutes == route {
				return true
			}
		}
	}
	return false
}
