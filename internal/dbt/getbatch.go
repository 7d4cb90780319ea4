package dbt

import (
	"context"
	"errors"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// GetBatch returns the values stored under keys, as seen by tx's
// snapshot (including tx's own buffered writes). Results are
// positional; an absent key yields a nil entry rather than an error —
// multi-key lookups routinely include misses.
//
// It is a read plan of one tree: every key's leaf read goes out in one
// round (PlanPoint, kvclient.Tx.Prefetch), turning the N serial leaf
// round trips of N Gets into a handful of parallel RPCs, and then every
// key is an ordinary Get, whose leaf read the round has already
// answered. A stale route costs the batch what it costs one Get: the
// first key whose descent backs down plans the leaf reads of every key
// from it on again, through the path it has just read afresh, into the
// round that reads its own leaf (descend's replan).
func (t *Tree) GetBatch(ctx context.Context, tx *kvclient.Tx, keys [][]byte) ([][]byte, error) {
	if err := t.prefetchPoints(ctx, tx, keys); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	var rest [][]byte
	replan := func() error { return t.prefetchPoints(ctx, tx, rest) }
	for i, key := range keys {
		rest = keys[i:]
		v, err := t.get(ctx, tx, key, replan)
		if err != nil && !errors.Is(err, ErrKeyNotFound) {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// prefetchPoints reads in one round the leaves that Gets of keys will
// read. One key is one Get: there is nothing to gather into a round.
func (t *Tree) prefetchPoints(ctx context.Context, tx *kvclient.Tx, keys [][]byte) error {
	if len(keys) < 2 {
		return nil
	}
	plan := make([]kv.ReadBatchItem, 0, len(keys))
	for _, key := range keys {
		plan = t.PlanPoint(plan, key)
	}
	return tx.Prefetch(ctx, plan)
}

// Read plans. A caller that knows beforehand which keys it will touch —
// a multi-key lookup, a write statement that has evaluated its rows (a
// scan plans its own leaves the same way: Iterator.readRound) — asks
// each tree for the leaf reads those operations will make
// (PlanPoint, PlanScan), across as many trees as it likes, and hands
// the lot to kvclient.Tx.Prefetch: one read round. The operations
// themselves then run unchanged, and their descents find the leaf reads
// answered in the transaction's read set. A plan is routing only: it
// walks the inner-node cache to the leaf's parent and names the leaf. A
// key the cache cannot route plans nothing, and a stale route plans a
// read of the wrong leaf; either way the operation's own descent, which
// validates fences and backs down as ever, pays for the read it needs. A
// plan costs a wasted read at worst, never a wrong answer.

// PlanPoint appends to plan the leaf read that Get, Put or Delete of key
// will make.
func (t *Tree) PlanPoint(plan []kv.ReadBatchItem, key []byte) []kv.ReadBatchItem {
	parent, idx := t.routeFromCache(key)
	if parent == nil {
		return t.planRoot(plan)
	}
	plan, _ = runItems(plan, parent.Cells[idx:idx+1], pointWindow(key))
	return plan
}

// planRoot appends to plan, while the root is a leaf, the read a descent
// makes of it: the whole node, since a descent does not know the root's
// height before it reads it. The root is named once however many keys a
// plan routes there.
func (t *Tree) planRoot(plan []kv.ReadBatchItem) []kv.ReadBatchItem {
	if !t.rootIsLeaf() {
		return plan
	}
	for _, it := range plan {
		if it.OID == t.root && it.From == nil && it.To == nil && it.Max == 0 {
			return plan
		}
	}
	return append(plan, kv.ReadBatchItem{OID: t.root, Part: true})
}

// routeFromCache routes key through cached inner nodes to its height-1
// parent and returns that node with the index of the child that should
// hold key; the cells from there on name the leaves that follow it, by
// their separators, up to the parent's last child. The answer is routing
// only — it may be stale: whoever reads the leaves it names validates
// their fences and falls back to a descent, exactly as a descent backs
// down. Returns nil when any level of the path is uncached or unusable,
// and always on an ablated handle, which therefore plans nothing: its
// experiments measure each mechanism alone, and reads planned together
// would hide the serial path they expose.
func (t *Tree) routeFromCache(key []byte) (parent *kv.Value, idx int) {
	if t.cfg.Ablated() {
		return nil, 0
	}
	cur := t.root
	const maxDepth = 64
	for depth := 0; depth < maxDepth; depth++ {
		v, ok := t.cache.get(cur)
		if !ok {
			return nil, 0
		}
		// Cached nodes are inner by construction, but the tree id and a
		// positive height are re-checked before trusting the route.
		if v.Kind != kv.KindSuper || v.Attrs[AttrTree] != t.id || v.Attrs[AttrHeight] == 0 {
			return nil, 0
		}
		i, _ := cellFloor(v, key)
		if i < 0 {
			return nil, 0
		}
		if v.Attrs[AttrHeight] == 1 {
			return v, i
		}
		child, err := childOID(v.Cells[i])
		if err != nil {
			return nil, 0
		}
		cur = child
	}
	return nil, 0
}
