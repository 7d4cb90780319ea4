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
// answered.
func (t *Tree) GetBatch(ctx context.Context, tx *kvclient.Tx, keys [][]byte) ([][]byte, error) {
	var plan []kv.ReadBatchItem
	for _, key := range keys {
		plan = t.PlanPoint(plan, key)
	}
	if err := tx.Prefetch(ctx, plan); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	for i, key := range keys {
		v, err := t.Get(ctx, tx, key)
		if err != nil && !errors.Is(err, ErrKeyNotFound) {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Read plans. A caller that knows beforehand which keys it will touch —
// a multi-key lookup, a write statement that has evaluated its rows —
// asks each tree for the leaf reads those operations will make
// (PlanPoint, PlanFirst), across as many trees as it likes, and hands
// the lot to kvclient.Tx.Prefetch: one read round. The operations
// themselves then run unchanged, and their descents find the leaf reads
// answered in the transaction's read set. A plan is routing only: it
// walks the inner-node cache to the leaf's parent and names the leaf. A
// key the cache cannot route plans nothing, and a stale route plans a
// read of the wrong leaf; either way the operation's own descent, which
// validates fences and backs down as ever, pays for the read it needs. A
// plan costs a wasted read at worst, never a wrong answer.

// PlanPoint appends to plan the leaf read that Get, Put or Delete of key
// will make. (A NoDelta handle's Put and Delete read the leaf whole:
// only its Gets are planned right.)
func (t *Tree) PlanPoint(plan []kv.ReadBatchItem, key []byte) []kv.ReadBatchItem {
	return t.planLeafRead(plan, key, pointWindow(key))
}

// PlanFirst appends to plan the leaf read that First(lo, hi) will make.
func (t *Tree) PlanFirst(plan []kv.ReadBatchItem, lo, hi []byte) []kv.ReadBatchItem {
	return t.planLeafRead(plan, lo, firstWindow(lo, hi))
}

// planLeafRead appends the read descend(key, win) will make of key's
// leaf, if the cache routes key to one: the window travels only when the
// handle reads leaves in part (see descendOnce).
func (t *Tree) planLeafRead(plan []kv.ReadBatchItem, key []byte, win window) []kv.ReadBatchItem {
	var one [1]kv.OID
	run := t.leafRunFromCache(one[:0], key, 1)
	if len(run) == 0 {
		return plan
	}
	if t.cfg.NoPartial {
		win = window{}
	}
	return append(plan, kv.ReadBatchItem{OID: run[0], Part: true, From: win.from, To: win.to, Max: win.max})
}

// leafRunFromCache routes key through cached inner nodes to its
// height-1 parent and returns, appended to run, the consecutive child
// leaf OIDs starting at the one that should hold key, up to n. The run
// stops at the parent's last child — crossing into the next parent would need
// another cached route, and the caller re-predicts from the following
// fence key anyway. A non-empty answer is routing only — it may be
// stale: the caller validates the fetched leaves' fences and falls back
// to a descent, exactly as a descent backs down. Returns nil when any
// level of the path is uncached or unusable.
func (t *Tree) leafRunFromCache(run []kv.OID, key []byte, n int) []kv.OID {
	cur := t.root
	const maxDepth = 64
	for depth := 0; depth < maxDepth; depth++ {
		v, ok := t.cache.get(cur)
		if !ok {
			return nil
		}
		// Cached nodes are inner by construction, but the tree id and a
		// positive height are re-checked before trusting the route.
		if v.Kind != kv.KindSuper || v.Attrs[AttrTree] != t.id || v.Attrs[AttrHeight] == 0 {
			return nil
		}
		idx, _ := cellFloor(v, key)
		if idx < 0 {
			return nil
		}
		if v.Attrs[AttrHeight] == 1 {
			for ; idx < len(v.Cells) && len(run) < n; idx++ {
				oid, err := childOID(v.Cells[idx])
				if err != nil {
					return nil
				}
				run = append(run, oid)
			}
			return run
		}
		child, err := childFor(v, key)
		if err != nil {
			return nil
		}
		cur = child
	}
	return nil
}

// sameSlotPrefix trims run to its leading same-server prefix.
func (t *Tree) sameSlotPrefix(run []kv.OID) []kv.OID {
	if len(run) == 0 {
		return run
	}
	slot := t.c.ServerFor(run[0])
	for i := 1; i < len(run); i++ {
		if t.c.ServerFor(run[i]) != slot {
			return run[:i]
		}
	}
	return run
}
