package dbt

import (
	"context"
	"slices"
	"sort"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Writes staged by routing (see "Write statements" in the package doc).
// A write that needs nothing read from its leaf — a new key, a row
// replaced or deleted whole — is staged on the leaf the inner-node cache
// routes its key to, beside compare ops (kv "Compare ops") that make the
// commit check what the route assumed. A statement pays for the route
// once per leaf: the leaf's fences still cover every key the statement
// routed there (one OpCmpFences, widened over them), and it is still a
// leaf of this tree (two OpCmpAttr, which a root grown over it fails:
// the root keeps its OID). A leaf the statement adds keys to gets one
// OpCmpMaxCells after its last add, at a hard cap of blindCap × MaxCells,
// and the commit reply says how many cells the leaf ended with: a
// writer that grew it past MaxCells splits it once it has committed,
// before its Commit returns, as Put's writer does. A stale route, or a
// leaf at the hard cap, fails the commit with a route compare's
// kv.CompareError and changes nothing; the caller then takes the read
// path (Put, Delete), which backs down and splits as ever. What each
// write requires of its key rides along as a constraint compare just
// before it, so a key two rows of one statement claim fails the second.

// blindCap is how many times MaxCells cells a write staged by routing may
// leave its leaf with. The writer splits what it grows past MaxCells, so
// a leaf reaches the cap only while its splits keep losing to other
// writers' commits; the cap keeps it from growing without bound then.
const blindCap = 2

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

// Routed is what a write statement stages on its trees without waiting
// for a read: compare ops and delta ops on the leaves they name, in the
// order the commit is to check and apply them, with each leaf's route
// compares made once. The zero value is empty and ready to use.
type Routed struct {
	ops    []kv.Op
	leaves []routedLeaf
	spare  [2]routedLeaf // the first leaves' room
}

// Grow makes room for n more ops. A statement of w writes on one leaf
// stages 2w+4 of them: each write with its key's check, and the leaf's
// route checks and cap.
func (r *Routed) Grow(n int) { r.ops = slices.Grow(r.ops, n) }

// routedLeaf is one leaf a Routed stages on.
type routedLeaf struct {
	t      *Tree
	oid    kv.OID
	fences int    // index in ops of the leaf's OpCmpFences
	added  []byte // a key the statement adds to the leaf; nil: none
}

// Stage stages r in tx, each leaf r adds keys to bounded by an
// OpCmpMaxCells after its last add, and asks tx to split, once it has
// committed, every such leaf its commit grew past MaxCells. r must not
// change afterwards.
func (r *Routed) Stage(tx *kvclient.Tx) {
	grows := false
	for _, l := range r.leaves {
		if l.added != nil {
			r.ops = append(r.ops, kv.Op{Kind: kv.OpCmpMaxCells, OID: l.oid, Num: uint64(blindCap * l.t.cfg.MaxCells)})
			grows = true
		}
	}
	for i := range r.ops {
		tx.Stage(&r.ops[i])
	}
	if grows {
		tx.OnCommit(r, func(ctx context.Context) { r.splitGrown(ctx, tx) })
	}
}

// splitGrown splits, after tx has committed r, each leaf r added keys to
// that tx's commit reply says it left over MaxCells.
func (r *Routed) splitGrown(ctx context.Context, tx *kvclient.Tx) {
	for _, l := range r.leaves {
		if l.added == nil {
			continue
		}
		if n, ok := tx.Cells(l.oid); ok && n > l.t.cfg.MaxCells {
			l.t.split(ctx, l.oid, l.added)
		}
	}
}

// Ops returns the ops r stages, for a caller that notes which leaves its
// checks name. They must not be modified.
func (r *Routed) Ops() []kv.Op { return r.ops }

// RoutePut adds to r what stages key's value on the leaf the cache routes
// key to, requiring c of the key, or returns false when the cache cannot
// route it (and always on an ablated handle).
func (t *Tree) RoutePut(r *Routed, key, value []byte, c Cond) bool {
	leaf, ok := t.routeLeaf(key)
	if !ok {
		return false
	}
	end := upperBoundExclusive(key)
	l := t.leafChecks(r, leaf, key, end)
	switch c {
	case Absent:
		r.ops = append(r.ops, kv.Op{Kind: kv.OpCmpAbsent, OID: leaf, From: key, To: end})
	case Present:
		r.ops = append(r.ops, kv.Op{Kind: kv.OpCmpPresent, OID: leaf, From: key})
	}
	r.ops = append(r.ops, kv.Op{Kind: kv.OpListAdd, OID: leaf, Cell: kv.Cell{Key: key, Value: value}})
	if c != Present && l.added == nil {
		l.added = key
	}
	return true
}

// RouteDelete adds to r what deletes key, which must be stored, from the
// leaf the cache routes it to, or returns false when the cache cannot
// route it.
func (t *Tree) RouteDelete(r *Routed, key []byte) bool {
	leaf, ok := t.routeLeaf(key)
	if !ok {
		return false
	}
	end := upperBoundExclusive(key)
	t.leafChecks(r, leaf, key, end)
	r.ops = append(r.ops,
		kv.Op{Kind: kv.OpCmpPresent, OID: leaf, From: key},
		kv.Op{Kind: kv.OpListDelRange, OID: leaf, From: key, To: end})
	return true
}

// RouteAbsent adds to r what makes the commit check that no key of
// [lo, hi) is stored, on each leaf the cache routes part of the range to,
// or returns false when the cache cannot route all of it (the range runs
// past the parent of lo's leaf).
func (t *Tree) RouteAbsent(r *Routed, lo, hi []byte) bool {
	parent, idx := t.routeFromCache(lo)
	if parent == nil {
		if !t.rootIsLeaf() {
			return false
		}
		t.leafChecks(r, t.root, lo, hi)
		r.ops = append(r.ops, kv.Op{Kind: kv.OpCmpAbsent, OID: t.root, From: lo, To: hi})
		return true
	}
	for i, from := idx, lo; ; i++ {
		leaf, err := childOID(parent.Cells[i])
		if err != nil {
			return false
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
		t.leafChecks(r, leaf, from, to)
		r.ops = append(r.ops, kv.Op{Kind: kv.OpCmpAbsent, OID: leaf, From: from, To: to})
		if last {
			return true
		}
		if i+1 == len(parent.Cells) {
			return false
		}
		from = next
	}
}

// Probe returns the first key of [lo, hi) that tx sees, or nil: the check
// a write statement makes on the read path for a key it must not find.
// It reads what an Iterator over Range{Lo: lo, Hi: hi, Limit: 1} reads,
// or, for a one-key range, what Get of the key reads, so a plan made with
// PlanScan or PlanPoint answers it. It also adds to r the checks that
// make tx's commit fail should some key of [lo, hi) be stored by then — by
// a transaction that read the range empty at its own snapshot, say: on
// every leaf the probe crossed, the route compares for the part of the
// range the leaf answered for, and that the part holds no key. The
// caller stages r once it has staged what it removes from the range.
func (t *Tree) Probe(ctx context.Context, tx *kvclient.Tx, lo, hi []byte, r *Routed) ([]byte, error) {
	point := len(hi) == len(lo)+1 && hi[len(lo)] == 0 && compare(hi[:len(lo)], lo) == 0
	for key := lo; ; {
		win := pointWindow(key)
		if !point {
			win, _ = scanWindow(tx, key, hi, 1)
		}
		li, err := t.descend(ctx, tx, key, win, nil)
		if err != nil {
			return nil, err
		}
		end := li.node.HighKey
		last := end == nil || compare(end, hi) >= 0
		to := hi
		if !last {
			to = end
		}
		t.leafChecks(r, li.oid, key, to)
		r.ops = append(r.ops, kv.Op{Kind: kv.OpCmpAbsent, OID: li.oid, From: key, To: to})
		cells := li.node.Cells
		i := sort.Search(len(cells), func(i int) bool { return compare(cells[i].Key, key) >= 0 })
		if i < len(cells) && compare(cells[i].Key, to) < 0 {
			return cells[i].Key, nil
		}
		if last {
			return nil, nil
		}
		key = end
	}
}

// routeLeaf returns the leaf the cache routes key to: the child its
// cached parent names, or the root while the root is a leaf.
func (t *Tree) routeLeaf(key []byte) (kv.OID, bool) {
	parent, idx := t.routeFromCache(key)
	if parent == nil {
		return t.root, t.rootIsLeaf()
	}
	oid, err := childOID(parent.Cells[idx])
	return oid, err == nil
}

// leafChecks makes r check, once for the statement, that leaf is still
// a leaf of this tree — which a root grown over it (the root keeps its
// OID) fails — and that its fences still cover [from, to), widening the
// one fence compare over every range the statement checks on the leaf:
// fences that cover the lowest and the highest cover all between. A
// split since the route was learned fails it. It returns the leaf's
// entry in r.
func (t *Tree) leafChecks(r *Routed, leaf kv.OID, from, to []byte) *routedLeaf {
	for i := range r.leaves {
		l := &r.leaves[i]
		if l.oid != leaf {
			continue
		}
		f := &r.ops[l.fences]
		if compare(from, f.From) < 0 {
			f.From = from
		}
		if f.To != nil && (to == nil || compare(to, f.To) > 0) {
			f.To = to
		}
		return l
	}
	if r.leaves == nil {
		r.leaves = r.spare[:0]
	}
	r.leaves = append(r.leaves, routedLeaf{t: t, oid: leaf, fences: len(r.ops)})
	r.ops = append(r.ops,
		kv.Op{Kind: kv.OpCmpFences, OID: leaf, From: from, To: to},
		kv.Op{Kind: kv.OpCmpAttr, OID: leaf, Attr: AttrHeight, Num: 0},
		kv.Op{Kind: kv.OpCmpAttr, OID: leaf, Attr: AttrTree, Num: t.id})
	return &r.leaves[len(r.leaves)-1]
}
