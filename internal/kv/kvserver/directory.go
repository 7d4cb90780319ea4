package kvserver

import (
	"encoding/binary"
	"hash/fnv"

	"yesquel/internal/kv"
	"yesquel/internal/wire"
)

// placement is the installed slot directory together with the index of
// this store's own group within it: dir.Routes entries equal to group
// are the routes this store serves. A placement is never mutated; an
// install replaces the whole value.
type placement struct {
	dir   *kv.Directory
	group uint32
}

// InstallDirectory installs d (deep-copied) as this store's slot
// directory, with groupIdx the index of the store's own group within
// it, and reports whether the install happened: a version at or below
// the current one is a no-op, so directories, like epochs, never move
// backwards. The cluster installs its directory once, at formation, and
// on each backup it attaches later.
func (s *Store) InstallDirectory(d *kv.Directory, groupIdx uint32) bool {
	next := &placement{dir: d.Clone(), group: groupIdx}
	for {
		cur := s.place.Load()
		if next.dir.Version <= cur.dir.Version {
			return false
		}
		if s.place.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// Directory returns the installed slot directory. The returned value is
// shared and must be treated as read-only.
func (s *Store) Directory() *kv.Directory { return s.place.Load().dir }

// CheckClientSlot gates a client operation on oid behind the slot
// directory: if oid's route is owned by another group, the typed
// WrongSlotError (carrying the directory version and the owner) rejects
// it, a guarantee the operation was not executed. The directory does
// not change after formation, so a rejection means the client was
// configured with another cluster's layout.
func (s *Store) CheckClientSlot(oid kv.OID) error {
	p := s.place.Load()
	route := p.dir.RouteFor(oid)
	if p.dir.Routes[route] != p.group {
		return s.wrongSlot(p.dir, route)
	}
	return nil
}

// wrongSlot builds the typed rejection carrying d's version and the
// route's owning group.
func (s *Store) wrongSlot(d *kv.Directory, route uint32) *kv.WrongSlotError {
	s.stats.WrongSlotRejects.Add(1)
	owner := d.Routes[route]
	var members []string
	if int(owner) < len(d.Groups) {
		members = append([]string(nil), d.Groups[owner]...)
	}
	return &kv.WrongSlotError{Version: d.Version, Route: route, Group: owner, Members: members}
}

// SlotDigest returns a deterministic digest of one route's CURRENT
// state: for every object whose slot maps to route (slot % nroutes),
// the OID and the newest version's timestamp and encoded value,
// XOR-combined like StateDigest. Unlike StateDigest it hashes only the
// newest version of each object, the state every acknowledged write
// resolves to, so replicas whose retention trims cut their version
// histories at different points still agree. SlotDigest(0, 1) covers
// every object: the members of a group compare it to check that they
// hold the same data.
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
