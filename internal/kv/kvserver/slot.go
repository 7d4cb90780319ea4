package kvserver

import (
	"encoding/binary"
	"hash/fnv"

	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// SetGroup tells the store which group it serves, group of groups, so
// that it refuses every OID another group owns (CheckClientSlot). Call it
// once, before the store serves: the group count is fixed when the
// cluster forms, and placement never changes after. A store never told
// serves every slot, as the one group of its cluster.
func (s *Store) SetGroup(group, groups int) {
	s.group, s.groups = group, groups
}

// CheckClientSlot gates a client operation on oid behind placement: if
// another group owns oid (kv.OID.Group), the typed WrongSlotError naming
// the owner rejects it, a guarantee the operation was not executed.
// Placement does not change after formation, so a rejection means the
// client was opened with another cluster's group list, or another order
// of it.
func (s *Store) CheckClientSlot(oid kv.OID) error {
	if s.groups <= 1 {
		return nil
	}
	if owner := oid.Group(s.groups); owner != s.group {
		s.stats.WrongSlotRejects.Add(1)
		return &kv.WrongSlotError{Group: uint32(owner), Groups: uint32(s.groups)}
	}
	return nil
}

// SlotDigest returns a deterministic digest of one group's CURRENT
// state: for every object that group owns of groups (kv.OID.Group), the
// OID and the newest version's timestamp and encoded value,
// XOR-combined like StateDigest. Unlike StateDigest it hashes only the
// newest version of each object, the state every acknowledged write
// resolves to, so replicas whose retention trims cut their version
// histories at different points still agree. SlotDigest(0, 1) covers
// every object: the members of a group compare it to check that they
// hold the same data.
func (s *Store) SlotDigest(group, groups uint32) uint64 {
	var total uint64
	var tsb [8]byte
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		for oid, obj := range sh.objs {
			if oid.Group(int(groups)) != int(group) || len(obj.versions) == 0 {
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
