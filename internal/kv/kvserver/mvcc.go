package kvserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

const numShards = 64

type version struct {
	ts clock.Timestamp
	// val is the value: a base plus the list ops committed since it
	// (kv.Layered), sharing the base and the earlier ops with the
	// versions before it. An absent val is a tombstone.
	val kv.Layered
	// Conflict metadata: a structural commit (full writes, fence
	// changes, range deletes) conflicts with every concurrent write; a
	// commutative one keeps its own writes in commit and conflicts only
	// with a write that touches the same cell or attribute
	// (kv.Op.CommutativeTouch).
	structural bool
	commit     []*kv.Op
	// looked counts the pending ops that reads of this version, as the
	// newest one, had to look past (object.countRead).
	looked int
}

// size is what v adds to Store.stateBytes.
func (v *version) size() int { return versionOverhead + v.val.EncodedSize() }

// isStructural reports whether ops hold a write that does not commute
// with a concurrent one (kv.Op.CommutativeTouch). Compare ops touch
// nothing.
func isStructural(ops []*kv.Op) bool {
	for _, op := range ops {
		if _, ok := op.CommutativeTouch(); !ok && !op.Kind.IsCompare() {
			return true
		}
	}
	return false
}

// touchesShared reports whether a write of ops touches a cell or
// attribute that a write of commit touches.
func touchesShared(ops, commit []*kv.Op) bool {
	for _, op := range ops {
		key, ok := op.CommutativeTouch()
		if !ok {
			continue
		}
		for _, c := range commit {
			if k, ok := c.CommutativeTouch(); ok && bytes.Equal(k, key) {
				return true
			}
		}
	}
	return false
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

func (s *Store) shardFor(oid kv.OID) *shard {
	// OID locals are assigned sequentially or randomly; fold the bits.
	h := uint64(oid)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &s.shard[h%numShards]
}

// Read returns the newest version of oid visible at snap, materialized
// (kv.Layered.Value). The returned value must not be mutated by the
// caller (versions are immutable).
func (s *Store) Read(oid kv.OID, snap clock.Timestamp) (*kv.Value, clock.Timestamp, error) {
	l, ts, _, err := s.read(oid, snap)
	return l.Value(), ts, err
}

// read returns the newest version of oid visible at snap, as stored,
// and whether the caller should rebase it (object.countRead).
func (s *Store) read(oid kv.OID, snap clock.Timestamp) (kv.Layered, clock.Timestamp, bool, error) {
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
			return kv.Layered{}, 0, false, kv.ErrNotFound
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
				return kv.Layered{}, 0, false, fmt.Errorf("%w: read blocked on prepared transaction", kv.ErrConflict)
			}
		}
		v, ts, ok := visibleVersion(obj, snap)
		trimmed := obj.gcFloor != 0
		rebase := ok && obj.countRead(ts)
		sh.mu.Unlock()
		if !ok && trimmed {
			// Every retained version is newer than snap, and older ones
			// were garbage-collected: what snap should see is gone, and
			// "not found" would be a wrong answer (a hot tree root would
			// read as dangling). The reader must take a fresh snapshot.
			return kv.Layered{}, 0, false, fmt.Errorf("%w: snapshot predates GC horizon (versions trimmed past the retention window or the version cap)", kv.ErrConflict)
		}
		if !ok || v.Absent() {
			return kv.Layered{}, 0, false, kv.ErrNotFound
		}
		return v, ts, rebase, nil
	}
}

// ReadPart returns a windowed view of oid at snap: attributes and
// bounds always, cells limited to [floor(from), to) capped at max, and
// the node's total cell count. Plain values come back whole. The cells
// are the stored ones where no pending op touches the window, and a
// copy of the window's cells alone where one does (kv.Layered.Part).
// A read that copied many cells, or one that brings the pending ops the
// version's reads have looked past to its cell count (object.countRead),
// rebases the version, if it is still the newest, so that the reads
// after it overlay nothing — a table loaded and then only read would
// otherwise overlay its leaves' last ops forever.
func (s *Store) ReadPart(oid kv.OID, snap clock.Timestamp, from, to []byte, max uint32) (*kv.Value, int, clock.Timestamp, error) {
	l, ts, rebase, err := s.read(oid, snap)
	if err != nil {
		return nil, 0, 0, err
	}
	v, total, copied := l.Part(from, to, max)
	if rebase || copied {
		s.rebaseNewest(oid, l, ts)
	}
	return v, total, ts, nil
}

// countRead counts a read of obj's version at ts, and reports whether
// the reader should rebase it: the version is the newest, and with this
// read the pending ops its reads have looked past reach its cell count.
// Each read pays to look past the ops to the base (more when one
// touched its window), and a rebase copies the leaf, so by then the
// reads have paid about what the rebase costs: a leaf written more often
// than it is read keeps its ops until the commit that rebases it, and
// one that is loaded and then only read sheds them. Caller holds the
// shard mutex.
func (obj *object) countRead(ts clock.Timestamp) bool {
	n := len(obj.versions)
	if n == 0 || obj.versions[n-1].ts != ts {
		return false
	}
	v := &obj.versions[n-1]
	before := v.looked
	v.looked += v.val.Pending()
	return before < v.val.NumCells() && v.looked >= v.val.NumCells()
}

// rebaseNewest replaces oid's newest version, if it is still l at ts,
// by l rebased (kv.Layered.Rebase): the same value, with no ops
// pending. The rebase runs off the shard lock.
func (s *Store) rebaseNewest(oid kv.OID, l kv.Layered, ts clock.Timestamp) {
	r := l.Rebase()
	sh := s.shardFor(oid)
	sh.mu.Lock()
	if obj := sh.objs[oid]; obj != nil {
		if n := len(obj.versions); n > 0 && obj.versions[n-1].ts == ts && obj.versions[n-1].val == l {
			obj.versions[n-1].val = r
		}
	}
	sh.mu.Unlock()
}

func visibleVersion(obj *object, snap clock.Timestamp) (kv.Layered, clock.Timestamp, bool) {
	// versions ascend by ts; find the newest with ts <= snap.
	i := sort.Search(len(obj.versions), func(i int) bool {
		return obj.versions[i].ts > snap
	})
	if i == 0 {
		return kv.Layered{}, 0, false
	}
	ver := &obj.versions[i-1]
	return ver.val, ver.ts, true
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
		return fmt.Errorf("%w: snapshot predates GC horizon (versions trimmed past the retention window or the version cap)", kv.ErrConflict)
	}
	txStructural := isStructural(ops)
	for i := n - 1; i >= 0 && obj.versions[i].ts > start; i-- {
		v := &obj.versions[i]
		if txStructural || v.structural {
			return fmt.Errorf("%w: concurrent structural write", kv.ErrConflict)
		}
		if touchesShared(ops, v.commit) {
			return fmt.Errorf("%w: concurrent write to same cell", kv.ErrConflict)
		}
	}
	return nil
}

// applyOps folds ops over base (kv.Layered.With) and returns the value
// they produce. It stops at the first op that fails, returning the
// value reached so far with the error. base is not changed.
func applyOps(base kv.Layered, ops []*kv.Op) (kv.Layered, error) {
	for _, op := range ops {
		next, err := base.With(op)
		if err != nil {
			return base, err
		}
		base = next
	}
	return base, nil
}

// newest returns obj's newest value (absent for none or a tombstone) —
// the base a commit's ops apply to — and its timestamp (0 for none).
func newest(obj *object) (kv.Layered, clock.Timestamp) {
	if n := len(obj.versions); n > 0 {
		return obj.versions[n-1].val, obj.versions[n-1].ts
	}
	return kv.Layered{}, 0
}

// applyStaged turns a transaction's staged ops into visible versions at
// commitTS and releases its locks: each lock carries the value its ops
// produce (lockState.staged), which is installed as it is. A lock with
// no writes held an object the transaction only compared: it is
// released, and no version is made. Tombstones are kept until the
// retention horizon passes (the sweeper removes them): erasing the
// object now would also erase the conflict history a concurrent
// transaction with an older snapshot still needs.
func (s *Store) applyStaged(txid uint64, oids []kv.OID, commitTS clock.Timestamp) {
	for _, oid := range oids {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		if obj := sh.objs[oid]; obj != nil && obj.lock != nil && obj.lock.txid == txid {
			if lock := obj.lock; len(lock.writes) > 0 {
				s.installVersionLocked(obj, commitTS, lock.staged, lock.writes)
			}
			sh.unlockLocked(oid, obj)
		}
		sh.mu.Unlock()
	}
}

// unlockLocked releases obj's lock, waking the readers waiting on it,
// and drops obj if the lock was all it held. Caller holds sh.mu.
func (sh *shard) unlockLocked(oid kv.OID, obj *object) {
	close(obj.lock.done)
	obj.lock = nil
	if len(obj.versions) == 0 {
		delete(sh.objs, oid)
	}
}

// installVersionLocked appends val, the value writes produced, as obj's
// version at ts — the one place a commit's effects become visible,
// natively or replicated — rebased once enough ops have piled up on its
// base (kv.Layered.Settle), then advances the stream's commit-timestamp
// mark and trims the chain against it. Caller holds repMu and the shard
// mutex.
func (s *Store) installVersionLocked(obj *object, ts clock.Timestamp, val kv.Layered, writes []*kv.Op) {
	v := version{ts: ts, val: val.Settle(), structural: isStructural(writes)}
	if !v.structural {
		v.commit = writes
	}
	obj.versions = append(obj.versions, v)
	s.stateBytes.Add(int64(v.size()))
	if uint64(ts) > s.streamTS.Load() {
		s.streamTS.Store(uint64(ts))
	}
	s.trimLocked(obj)
}

// versionOverhead is what a version adds to a state snapshot beside its
// encoded value: timestamp, flags and a typical touched set.
const versionOverhead = 32

// retentionHorizon is the timestamp at or below which superseded
// versions may be collected. It is a function of the stream, not of
// this member's clock: streamTS is the highest commit timestamp among
// the records applied so far, so every member of a group computes the
// same horizon at the same sequence number, trims the same versions
// there, and StateDigest stays a replica invariant however long the
// group runs. (A member's own clock runs ahead of its commits by
// however many reads it has served.)
func (s *Store) retentionHorizon() clock.Timestamp {
	mark := clock.Timestamp(s.streamTS.Load()).WallMillis()
	if mark <= s.cfg.RetentionMillis {
		return 0
	}
	return clock.Make(mark-s.cfg.RetentionMillis, 0)
}

// trimLocked garbage-collects superseded versions. Caller holds the
// shard mutex. We always keep the newest version, plus the newest
// version at or below the retention horizon (the base any
// within-retention snapshot could need).
func (s *Store) trimLocked(obj *object) {
	if len(obj.versions) <= 1 {
		return
	}
	horizon := s.retentionHorizon()
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
	if cut == 0 {
		return
	}
	s.stats.GCVersions.Add(uint64(cut))
	if f := obj.versions[cut-1].ts; f > obj.gcFloor {
		obj.gcFloor = f
	}
	freed := 0
	for i := range obj.versions[:cut] {
		freed += obj.versions[i].size()
	}
	s.stateBytes.Add(-int64(freed))
	// Shift down in place: a hot object sits at MaxVersions and trims on
	// every commit, and the array it already has is the right size. The
	// vacated tail is zeroed so the dropped values can be collected.
	n := copy(obj.versions, obj.versions[cut:])
	clear(obj.versions[n:])
	obj.versions = obj.versions[:n]
}

// SweepTombstones removes unlocked objects whose newest version is a
// tombstone at or below the retention horizon — the stream's horizon
// (retentionHorizon), so members that have applied the same records
// sweep the same objects. The server runs this periodically; tests call
// it directly.
func (s *Store) SweepTombstones() int {
	horizon := s.retentionHorizon()
	removed := 0
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			n := len(obj.versions)
			if obj.lock == nil && n > 0 &&
				obj.versions[n-1].val.Absent() && obj.versions[n-1].ts <= horizon {
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
			for i := range obj.versions {
				v := &obj.versions[i]
				binary.BigEndian.PutUint64(tsb[:], uint64(v.ts))
				h.Write(tsb[:])
				b := wire.NewBuffer(v.val.EncodedSize())
				kv.EncodeValue(b, v.val.Value())
				h.Write(b.Bytes())
			}
			total ^= h.Sum64()
		}
		sh.mu.Unlock()
	}
	return total
}
