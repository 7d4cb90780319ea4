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
// Keys whose leaf the inner-node cache can predict are served with one
// batched point-window read per server slot (kvclient.Tx.ReadBatch),
// turning the N serial leaf round trips of N Gets into a handful of
// parallel RPCs. The prediction is only routing: each returned leaf is
// validated against its fences exactly like a descent validates, and
// any key the cache cannot place — or whose predicted leaf turns out
// stale — falls back to an ordinary Get, whose back-down search
// repairs the cache.
func (t *Tree) GetBatch(ctx context.Context, tx *kvclient.Tx, keys [][]byte) ([][]byte, error) {
	out := make([][]byte, len(keys))
	var (
		items   []kv.ReadBatchItem
		itemKey []int // items[j] serves keys[itemKey[j]]
		syncIdx []int
	)
	useBatch := !t.cfg.NoCache && !t.cfg.NoPartial
	for i, key := range keys {
		if useBatch {
			if run := t.leafRunFromCache(key, 1); len(run) == 1 {
				win := pointWindow(key)
				items = append(items, kv.ReadBatchItem{OID: run[0], Part: true, From: win.from, To: win.to, Max: win.max})
				itemKey = append(itemKey, i)
				continue
			}
		}
		syncIdx = append(syncIdx, i)
	}
	if len(items) > 0 {
		t.stats.NodeReads.Add(uint64(len(items)))
		results, err := tx.ReadBatch(ctx, items)
		if err != nil {
			return nil, err
		}
		for j := range results {
			res := &results[j]
			i := itemKey[j]
			key := keys[i]
			leaf := res.Value
			if !res.Found || leaf.Kind != kv.KindSuper || leaf.Attrs[AttrTree] != t.id ||
				leaf.Attrs[AttrHeight] != 0 || !leaf.InBounds(key) {
				// Stale routing (the leaf split, moved, or grew into an
				// inner node since it was cached): back down to a full
				// descent for this key.
				syncIdx = append(syncIdx, i)
				continue
			}
			if v, ok := leaf.ListGet(key); ok {
				out[i] = v
			}
		}
	}
	for _, i := range syncIdx {
		v, err := t.Get(ctx, tx, keys[i])
		if err != nil {
			if errors.Is(err, ErrKeyNotFound) {
				continue
			}
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// leafRunFromCache routes key through cached inner nodes to its
// height-1 parent and returns the run of consecutive child leaf OIDs
// starting at the one that should hold key, up to n. The run stops at
// the parent's last child — crossing into the next parent would need
// another cached route, and the caller re-predicts from the following
// fence key anyway. A non-empty answer is routing only — it may be
// stale: the caller validates the fetched leaves' fences and falls back
// to a descent, exactly as a descent backs down. Returns nil when any
// level of the path is uncached or unusable.
func (t *Tree) leafRunFromCache(key []byte, n int) []kv.OID {
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
			run := make([]kv.OID, 0, n)
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
