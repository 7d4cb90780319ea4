package dbt

import (
	"context"
	"sort"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Writes staged by routing (see "Write statements" in the package doc).
// A write that needs nothing read from its leaf — a new key, a row
// replaced or deleted whole — is staged on the leaf the inner-node cache
// routes its key to, beside compare ops (kv "Compare ops") that make the
// commit check what the route assumed: the leaf's fences still cover the
// key, it is still a leaf of this tree, and, for a new key, it stays
// within MaxCells. A stale route, or a full leaf, fails the commit with a
// route compare's kv.CompareError and changes nothing; the caller then
// takes the read path (Put, Delete), which backs down and splits as ever.
// What the write requires of its key rides along as a constraint compare.

// Cond is what a write staged by routing requires of its key when the
// transaction commits.
type Cond uint8

const (
	// Any requires nothing: a fresh index entry or rowid.
	Any Cond = iota
	// Absent requires the key to be free: a new primary key.
	Absent
	// Present requires the key to be stored: the row an UPDATE or DELETE
	// by key names without reading it.
	Present
)

// Routed is what a write statement stages on a tree without waiting for
// a read: compare ops and delta ops on the leaves they name, in the order
// the commit is to check and apply them.
type Routed []kv.Op

// Stage stages r in tx. r must not change afterwards.
func (r Routed) Stage(tx *kvclient.Tx) {
	for i := range r {
		tx.Stage(&r[i])
	}
}

// RoutePut returns what stages key's value on the leaf the cache routes
// key to, requiring c of the key, or false when the cache cannot route
// it (and always on an ablated handle). A key that may be new also
// requires the leaf to end the transaction within MaxCells, so a write
// staged by routing never asks for a split.
func (t *Tree) RoutePut(key, value []byte, c Cond) (Routed, bool) {
	leaf, ok := t.routeLeaf(key)
	if !ok {
		return nil, false
	}
	end := upperBoundExclusive(key)
	r := t.leafChecks(make(Routed, 0, 6), leaf, key, end)
	switch c {
	case Absent:
		r = append(r, kv.Op{Kind: kv.OpCmpAbsent, OID: leaf, From: key, To: end})
	case Present:
		r = append(r, kv.Op{Kind: kv.OpCmpPresent, OID: leaf, From: key})
	}
	r = append(r, kv.Op{Kind: kv.OpListAdd, OID: leaf, Cell: kv.Cell{Key: key, Value: value}})
	if c != Present {
		r = append(r, kv.Op{Kind: kv.OpCmpMaxCells, OID: leaf, Num: uint64(t.cfg.MaxCells)})
	}
	return r, true
}

// RouteDelete returns what deletes key, which must be stored, from the
// leaf the cache routes it to, or false when the cache cannot route it.
func (t *Tree) RouteDelete(key []byte) (Routed, bool) {
	leaf, ok := t.routeLeaf(key)
	if !ok {
		return nil, false
	}
	end := upperBoundExclusive(key)
	r := t.leafChecks(make(Routed, 0, 5), leaf, key, end)
	return append(r,
		kv.Op{Kind: kv.OpCmpPresent, OID: leaf, From: key},
		kv.Op{Kind: kv.OpListDelRange, OID: leaf, From: key, To: end}), true
}

// RouteAbsent returns what makes the commit check that no key of
// [lo, hi) is stored, on each leaf the cache routes part of the range to,
// or false when the cache cannot route all of it (the range runs past
// the parent of lo's leaf).
func (t *Tree) RouteAbsent(lo, hi []byte) (Routed, bool) {
	parent, idx := t.routeFromCache(lo)
	if parent == nil {
		return nil, false
	}
	var r Routed
	for i, from := idx, lo; ; i++ {
		leaf, err := childOID(parent.Cells[i])
		if err != nil {
			return nil, false
		}
		next := parent.HighKey // where the parent's last child ends
		if i+1 < len(parent.Cells) {
			next = parent.Cells[i+1].Key
		}
		last := next == nil || compare(next, hi) >= 0
		to := hi
		if !last {
			to = next
		}
		r = t.leafChecks(r, leaf, from, to)
		r = append(r, kv.Op{Kind: kv.OpCmpAbsent, OID: leaf, From: from, To: to})
		if last {
			return r, true
		}
		if i+1 == len(parent.Cells) {
			return nil, false
		}
		from = next
	}
}

// Probe returns the first key of [lo, hi) that tx sees, or nil: the check
// a write statement makes on the read path for a key it must not find.
// It reads what an Iterator over Range{Lo: lo, Hi: hi, Limit: 1} reads,
// or, for a one-key range, what Get of the key reads, so a plan made with
// PlanScan or PlanPoint answers it. It also returns the checks that make
// tx's commit fail should some key of [lo, hi) be stored by then — by a
// transaction that read the range empty at its own snapshot, say: on
// every leaf the probe crossed, the route compares for the part of the
// range the leaf answered for, and that the part holds no key. The
// caller stages them once it has staged what it removes from the range.
func (t *Tree) Probe(ctx context.Context, tx *kvclient.Tx, lo, hi []byte) ([]byte, Routed, error) {
	point := len(hi) == len(lo)+1 && hi[len(lo)] == 0 && compare(hi[:len(lo)], lo) == 0
	var checks Routed
	for key := lo; ; {
		win := pointWindow(key)
		if !point {
			win, _ = scanWindow(tx, key, hi, 1)
		}
		li, err := t.descend(ctx, tx, key, win, nil)
		if err != nil {
			return nil, nil, err
		}
		end := li.node.HighKey
		last := end == nil || compare(end, hi) >= 0
		to := hi
		if !last {
			to = end
		}
		checks = t.leafChecks(checks, li.oid, key, to)
		checks = append(checks, kv.Op{Kind: kv.OpCmpAbsent, OID: li.oid, From: key, To: to})
		cells := li.node.Cells
		i := sort.Search(len(cells), func(i int) bool { return compare(cells[i].Key, key) >= 0 })
		if i < len(cells) && compare(cells[i].Key, to) < 0 {
			return cells[i].Key, checks, nil
		}
		if last {
			return nil, checks, nil
		}
		key = end
	}
}

// routeLeaf returns the leaf the cache routes key to.
func (t *Tree) routeLeaf(key []byte) (kv.OID, bool) {
	parent, idx := t.routeFromCache(key)
	if parent == nil {
		return 0, false
	}
	oid, err := childOID(parent.Cells[idx])
	return oid, err == nil
}

// leafChecks appends to r the route compares of a write or check on leaf
// for the keys [from, to): its fences still cover them — a split since
// the route was learned fails this — and it is still a leaf of this tree,
// which a root grown over it (the root keeps its OID) fails.
func (t *Tree) leafChecks(r Routed, leaf kv.OID, from, to []byte) Routed {
	return append(r,
		kv.Op{Kind: kv.OpCmpFences, OID: leaf, From: from, To: to},
		kv.Op{Kind: kv.OpCmpAttr, OID: leaf, Attr: AttrHeight, Num: 0},
		kv.Op{Kind: kv.OpCmpAttr, OID: leaf, Attr: AttrTree, Num: t.id})
}
