package dbt

import (
	"context"
	"errors"
	"fmt"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Splits. The writer whose commit grew a node past MaxCells splits it
// before its Commit returns, in a transaction of its own — as in the
// paper, no user transaction carries structural work, and because the
// split runs under the same snapshot-isolation transactions as everything
// else, readers either see the tree entirely before or entirely after it.
// The writer then splits whatever that split left over the limit (a half
// still over it, the parent it overflowed), so a lone writer's Commit
// returns with no node over MaxCells. A split conflicts with every commit
// on its node since it began; a writer that went straight on — a
// statement is one planned read round and a commit — would land one in
// every attempt and the node would grow without bound. Splitting after
// the commit costs no transaction anything: the writer's next one starts
// at a snapshot that has the split in it.
//
// A split of node X with fences [l, h) at a mid key m:
//   - creates a fresh right sibling R on the next server round-robin,
//     holding X's cells >= m with fences [m, h);
//   - shrinks X in place to [l, m) by deleting the moved cells and
//     updating its fence (delta operations, so the left half is not
//     rewritten);
//   - adds the routing cell (m -> R) to X's parent.
//
// Splitting the root grows the tree instead: the root's cells move into
// two fresh children and the root is rewritten in place as an inner
// node of height+1, so the root OID never changes.

// A split is one read round and its commit. The writer names a key of
// the node (one it wrote there), so the split prefetches the node with
// the path the inner-node cache routes that key along, root first, in
// one kvclient.Tx.Prefetch: findParent's walk, transactional as ever,
// then finds every read it makes in the transaction's read set. A stale
// path costs the walk a read where the cache went wrong, never a wrong
// parent.

// split splits node oid, which a committed write grew past MaxCells, and
// then whatever that split left over the limit; key is a key the node
// holds. Writers on one handle share one attempt per node: one that finds
// oid being split waits for that split and for what it leads to.
func (t *Tree) split(ctx context.Context, oid kv.OID, key []byte) {
	t.splitMu.Lock()
	if done, ok := t.splitting[oid]; ok {
		t.splitMu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
		}
		return
	}
	done := make(chan struct{})
	t.splitting[oid] = done
	t.splitMu.Unlock()
	defer close(done)

	over := t.trySplit(ctx, oid, key)
	// The entry goes before the follow-ups: a writer waits only on an
	// attempt in progress, never on one that is itself waiting, so no two
	// writers can wait on each other.
	t.splitMu.Lock()
	delete(t.splitting, oid)
	t.splitMu.Unlock()
	for _, next := range over {
		t.split(ctx, next.oid, next.key)
	}
}

// overNode is a node a split left over MaxCells, with a key it holds.
type overNode struct {
	oid kv.OID
	key []byte
}

// trySplit makes up to five tries at splitting oid, pausing 1, 2, 3 and
// then 4 ms after each that conflicted with a concurrent writer, and
// returns the nodes the split left over MaxCells. Giving up leaves the
// node to the next write that grows it.
func (t *Tree) trySplit(ctx context.Context, oid kv.OID, key []byte) []overNode {
	var backoff *time.Timer // one timer for every pause, Reset per retry
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for try := 1; ; try++ {
		over, err := t.splitNode(ctx, oid, key)
		if !errors.Is(err, kv.ErrConflict) {
			return over
		}
		t.stats.SplitConflict.Add(1)
		if try == 5 {
			return nil
		}
		d := time.Duration(try) * time.Millisecond
		if backoff == nil {
			backoff = time.NewTimer(d)
		} else {
			backoff.Reset(d)
		}
		select {
		case <-backoff.C:
		case <-ctx.Done():
			return nil
		}
	}
}

// splitNode splits oid, a node that holds key, if its committed state is
// over MaxCells, and returns the nodes the split left over the limit:
// either half, and the parent it added a routing cell to.
func (t *Tree) splitNode(ctx context.Context, oid kv.OID, key []byte) ([]overNode, error) {
	tx := t.c.Begin()
	defer func() {
		// Commit is explicit below; Abort on a committed tx is a no-op
		// guard for early returns.
		tx.Abort()
	}()
	if err := tx.Prefetch(ctx, t.splitReads(oid, key)); err != nil {
		return nil, err
	}
	node, err := tx.Read(ctx, oid)
	if err != nil {
		if errors.Is(err, kv.ErrNotFound) {
			return nil, nil // already split away or deleted
		}
		return nil, err
	}
	if node.Kind != kv.KindSuper || node.Attrs[AttrTree] != t.id {
		return nil, nil
	}
	if node.NumCells() <= t.cfg.MaxCells {
		return nil, nil // another writer split it first
	}

	mid := node.NumCells() / 2
	midKey := node.Cells[mid].Key
	// Degenerate: all cells share a prefix region such that midKey
	// equals the low fence; cannot split there. Cells are strictly
	// sorted, so with two or more this never happens, and each half is
	// smaller than the node: splitting halves that are still over the
	// limit ends.
	if compare(midKey, node.LowKey) == 0 {
		return nil, nil
	}

	// The two halves as the split leaves them: the left keeps the node's
	// OID — unless the node is the root, whose OID stays the root's and
	// whose halves both move to fresh nodes — the right is new, on the
	// next server round-robin.
	leftOID := oid
	if oid == t.root {
		leftOID = t.newNodeOID()
	}
	rightOID := t.newNodeOID()
	left, right := *node, *node
	left.HighKey, right.LowKey = midKey, midKey
	left.Cells, right.Cells = node.Cells[:mid:mid], node.Cells[mid:]

	router := t.root // the inner node that routes to the new sibling
	if oid == t.root {
		t.growRoot(tx, node, leftOID, &left, rightOID, &right)
	} else if router, err = t.splitNonRoot(ctx, tx, oid, node, rightOID, &right); err != nil {
		return nil, err
	}
	// The router as the split leaves it: tx's own writes over what it has
	// read, no round trip.
	routing, err := tx.Read(ctx, router)
	if err != nil {
		return nil, err
	}
	if err := tx.Commit(ctx); err != nil {
		return nil, err
	}
	t.stats.SplitsDone.Add(1)
	// Routing changed: cache the router as it is now and, when what split
	// was an inner node, both halves in place of the cached whole — or this
	// handle's next read plan under them routes nothing (or names the old
	// leaf) and every planned read behind it is wasted.
	if !t.cfg.NoCache {
		t.cache.putRouter(router, routing)
		if node.Attrs[AttrHeight] > 0 {
			t.cache.put(leftOID, &left)
			t.cache.put(rightOID, &right)
		}
	}
	if oid == t.root {
		t.rootLeaf.Store(false)
	}
	var over []overNode
	for _, n := range [...]struct {
		oid kv.OID
		v   *kv.Value
		key []byte
	}{{leftOID, &left, node.Cells[0].Key}, {rightOID, &right, midKey}, {router, routing, midKey}} {
		if n.v.NumCells() > t.cfg.MaxCells {
			over = append(over, overNode{n.oid, n.key})
		}
	}
	return over, nil
}

// splitReads is what a split of oid, a node that holds key, reads, as
// far as the handle can tell beforehand: the node, whole, and the nodes
// the inner-node cache routes key through from the root, which is where
// findParent walks. The walk stops at the first node not cached (the
// root, say, while it is the node itself) or at oid.
func (t *Tree) splitReads(oid kv.OID, key []byte) []kv.ReadBatchItem {
	reads := []kv.ReadBatchItem{{OID: oid, Part: true}}
	const maxDepth = 64 // findParent's
	for cur := t.root; cur != oid && len(reads) <= maxDepth; {
		reads = append(reads, kv.ReadBatchItem{OID: cur, Part: true})
		v, ok := t.cache.get(cur)
		if !ok || t.cfg.NoCache {
			break
		}
		next, err := childFor(v, key)
		if err != nil {
			break
		}
		cur = next
	}
	return reads
}

// growRoot turns the (oversized) root into an inner node over its two
// halves, which move to fresh nodes. The root OID is preserved — clients
// hold it statically.
func (t *Tree) growRoot(tx *kvclient.Tx, root *kv.Value, leftOID kv.OID, left *kv.Value, rightOID kv.OID, right *kv.Value) {
	newRoot := kv.NewSuper()
	newRoot.Attrs[AttrHeight] = root.Attrs[AttrHeight] + 1
	newRoot.Attrs[AttrTree] = t.id
	newRoot.LowKey = root.LowKey
	newRoot.HighKey = root.HighKey
	lowCell := root.LowKey
	if lowCell == nil {
		lowCell = []byte{}
	}
	newRoot.ListAdd(lowCell, encodeChild(leftOID))
	newRoot.ListAdd(right.LowKey, encodeChild(rightOID))

	tx.Put(leftOID, left)
	tx.Put(rightOID, right)
	tx.Put(t.root, newRoot)
}

// splitNonRoot moves the upper half of node into the fresh sibling right
// and links it into the parent, whose OID it returns.
func (t *Tree) splitNonRoot(ctx context.Context, tx *kvclient.Tx, oid kv.OID, node *kv.Value, rightOID kv.OID, right *kv.Value) (kv.OID, error) {
	midKey := right.LowKey
	tx.Put(rightOID, right)

	// Shrink the left half in place with deltas: the surviving cells
	// are not rewritten.
	tx.ListDelRange(oid, midKey, nil)
	tx.SetBounds(oid, node.LowKey, midKey)

	// Link the new sibling into the parent, found by a transactional walk
	// from the root to height+1, whose reads the split prefetched
	// (splitReads).
	parentOID, err := t.findParent(ctx, tx, node, oid)
	if err != nil {
		return 0, err
	}
	tx.ListAdd(parentOID, midKey, encodeChild(rightOID))
	return parentOID, nil
}

// findParent locates the node at child's height+1 whose range covers
// child's low fence, reading transactionally within tx.
func (t *Tree) findParent(ctx context.Context, tx *kvclient.Tx, child *kv.Value, childOIDv kv.OID) (kv.OID, error) {
	wantHeight := child.Attrs[AttrHeight] + 1
	key := child.LowKey
	if key == nil {
		key = []byte{}
	}
	cur := t.root
	const maxDepth = 64
	for depth := 0; depth < maxDepth; depth++ {
		node, err := tx.Read(ctx, cur)
		if err != nil {
			return 0, err
		}
		h := node.Attrs[AttrHeight]
		if h == wantHeight {
			// Verify it actually routes to the child.
			c, err := childFor(node, key)
			if err != nil || c != childOIDv {
				return 0, fmt.Errorf("%w: parent does not route to child", kv.ErrConflict)
			}
			return cur, nil
		}
		if h < wantHeight {
			return 0, fmt.Errorf("%w: child deeper than tree", kv.ErrConflict)
		}
		next, err := childFor(node, key)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return 0, fmt.Errorf("dbt: findParent exceeded max depth")
}
