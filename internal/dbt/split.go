package dbt

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Splits. An oversized node is split in its own transaction, separate
// from the transaction that grew it, on the handle's splitter goroutine
// — the paper's "delegated splits": the write that fills a leaf past
// its limit commits without structural work, and because the split runs
// under the same snapshot-isolation transactions as everything else,
// readers either see the tree entirely before or entirely after the
// split. The next write to a leaf already past its limit waits for the
// splitter's attempt at it (awaitSplit): delegation decides who does
// the work, not whether an oversized leaf may keep growing.
//
// A split of node X with fences [l, h) at a mid key m:
//   - creates a fresh right sibling R on a server chosen by the
//     placement policy, holding X's cells >= m with fences [m, h);
//   - shrinks X in place to [l, m) by deleting the moved cells and
//     updating its fence (delta operations, so the left half is not
//     rewritten);
//   - adds the routing cell (m -> R) to X's parent.
//
// Splitting the root grows the tree instead: the root's cells move into
// two fresh children and the root is rewritten in place as an inner
// node of height+1, so the root OID never changes.

type splitter struct {
	t  *Tree
	mu sync.Mutex
	// queued holds the nodes waiting for a split attempt or under one.
	queued map[kv.OID]*splitTicket
	ch     chan kv.OID
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// splitTicket is one queued node's attempt: done closes when the
// splitter has made it, and split then says whether it split the node.
type splitTicket struct {
	done  chan struct{}
	split bool
}

func (t *Tree) startSplitter() {
	s := &splitter{
		t:      t,
		queued: make(map[kv.OID]*splitTicket),
		ch:     make(chan kv.OID, 1024),
		stopCh: make(chan struct{}),
	}
	t.splitter = s
	if !t.cfg.SyncSplit {
		s.wg.Add(1)
		go s.run()
	}
}

// noteOversized reports that a node is oversized; the splitter will
// verify against committed state and split if warranted, once per note —
// a conflict with a concurrent writer is not retried, the next write to
// the node notes it again. With SyncSplit the caller must invoke
// MaintainNow after committing. The ticket tells when the attempt has
// been made (nil: the queue was full and the note dropped).
func (t *Tree) noteOversized(oid kv.OID) *splitTicket {
	s := t.splitter
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ticket, queued := s.queued[oid]
	if !queued {
		ticket = &splitTicket{done: make(chan struct{})}
		s.queued[oid] = ticket
	}
	s.mu.Unlock()
	if queued || t.cfg.SyncSplit {
		return ticket // SyncSplit: drained by MaintainNow
	}
	select {
	case s.ch <- oid:
		return ticket
	default:
		s.finish(oid, false)
		return nil
	}
}

// finish takes oid off the queue and tells whoever waits for it whether
// it was split.
func (s *splitter) finish(oid kv.OID, split bool) {
	s.mu.Lock()
	if ticket, ok := s.queued[oid]; ok {
		delete(s.queued, oid)
		ticket.split = split
		close(ticket.done)
	}
	s.mu.Unlock()
}

// awaitSplit is the writer's side of a split. A write to an oversized
// leaf notes the leaf and then waits here for this handle's splitter to
// have made its attempt, instead of racing it: a split conflicts with
// every commit on the node since the split began, and a writer whose
// transaction is one planned read round and a commit lands one in every
// attempt — the splitter would never win and the leaf would grow
// without bound, each commit on it costlier than the last. Writers to
// other leaves, and other clients, never wait; the split itself stays a
// transaction of its own on the splitter's goroutine.
//
// The error is kv.ErrConflict when the leaf was split: the split is
// newer than tx's snapshot, so tx, which is about to write to the leaf,
// can no longer commit, and says so now rather than at Commit.
func (t *Tree) awaitSplit(ctx context.Context, oid kv.OID) error {
	ticket := t.noteOversized(oid)
	if ticket == nil || t.cfg.SyncSplit {
		return nil
	}
	select {
	case <-ticket.done:
		if ticket.split {
			return fmt.Errorf("%w: leaf %v was split under the transaction", kv.ErrConflict, oid)
		}
		return nil
	case <-t.splitter.stopCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MaintainNow synchronously splits every queued node (and any parents
// that overflow as a result). Used with SyncSplit and by tests.
func (t *Tree) MaintainNow(ctx context.Context) error {
	s := t.splitter
	if s == nil {
		return nil
	}
	for {
		s.mu.Lock()
		var oid kv.OID
		found := false
		for o := range s.queued {
			oid, found = o, true
			break
		}
		s.mu.Unlock()
		if !found {
			return nil
		}
		split, err := t.splitNode(ctx, oid)
		s.finish(oid, split)
		if err != nil {
			return err
		}
	}
}

func (s *splitter) run() {
	defer s.wg.Done()
	ctx := context.Background()
	for {
		select {
		case <-s.stopCh:
			return
		case oid := <-s.ch:
			split, err := s.t.splitNode(ctx, oid)
			if errors.Is(err, kv.ErrConflict) {
				// Another client wrote to the node, or split it: expected.
				s.t.stats.SplitConflict.Add(1)
			}
			s.finish(oid, split)
		}
	}
}

func (s *splitter) stop() {
	s.mu.Lock()
	select {
	case <-s.stopCh:
		s.mu.Unlock()
		return
	default:
	}
	close(s.stopCh)
	s.mu.Unlock()
	s.wg.Wait()
}

// splitNode splits oid if its committed state is oversized, and reports
// whether it did. A split that would overflow the parent queues the
// parent too.
func (t *Tree) splitNode(ctx context.Context, oid kv.OID) (bool, error) {
	tx := t.c.Begin()
	defer func() {
		// Commit is explicit below; Abort on a committed tx is a no-op
		// guard for early returns.
		tx.Abort()
	}()
	node, err := tx.Read(ctx, oid)
	if err != nil {
		if errors.Is(err, kv.ErrNotFound) {
			return false, nil // already split away or deleted
		}
		return false, err
	}
	if node.Kind != kv.KindSuper || node.Attrs[AttrTree] != t.id {
		return false, nil
	}
	if node.NumCells() <= t.cfg.MaxCells {
		return false, nil // shrank since it was queued
	}

	mid := node.NumCells() / 2
	midKey := node.Cells[mid].Key
	// Degenerate: all cells share a prefix region such that midKey
	// equals the low fence; cannot split there.
	if compare(midKey, node.LowKey) == 0 {
		return false, nil
	}

	// router is the inner node that routes to the new sibling, as the
	// split leaves it.
	routerOID, router := t.root, (*kv.Value)(nil)
	if oid == t.root {
		router = t.growRoot(tx, node, mid)
	} else {
		routerOID, router, err = t.splitNonRoot(ctx, tx, oid, node, mid)
	}
	if err != nil {
		return false, err
	}
	if err := tx.Commit(ctx); err != nil {
		return false, err
	}
	t.stats.SplitsDone.Add(1)
	// Routing changed: drop the cached copy of what was split, and cache
	// the router as it is now — this handle's next descent, or read plan,
	// for a key that moved would otherwise follow the old route to the old
	// leaf and have to back down.
	t.cache.invalidate(oid)
	if !t.cfg.NoCache {
		t.cache.put(routerOID, router)
	}
	return true, nil
}

// growRoot turns the (oversized) root into an inner node with two fresh
// children, and returns the new root. The root OID is preserved —
// clients hold it statically.
func (t *Tree) growRoot(tx *kvclient.Tx, root *kv.Value, mid int) *kv.Value {
	midKey := root.Cells[mid].Key

	left := kv.NewSuper()
	left.Attrs[AttrHeight] = root.Attrs[AttrHeight]
	left.Attrs[AttrTree] = t.id
	left.LowKey = root.LowKey
	left.HighKey = append([]byte(nil), midKey...)
	left.Cells = append([]kv.Cell(nil), root.Cells[:mid]...)

	right := kv.NewSuper()
	right.Attrs[AttrHeight] = root.Attrs[AttrHeight]
	right.Attrs[AttrTree] = t.id
	right.LowKey = append([]byte(nil), midKey...)
	right.HighKey = root.HighKey
	right.Cells = append([]kv.Cell(nil), root.Cells[mid:]...)

	leftOID := t.newNodeOID()
	rightOID := t.newNodeOID()
	left.Attrs[AttrNext] = uint64(rightOID)
	right.Attrs[AttrNext] = root.Attrs[AttrNext]

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
	newRoot.ListAdd(midKey, encodeChild(rightOID))

	tx.Put(leftOID, left)
	tx.Put(rightOID, right)
	tx.Put(t.root, newRoot)
	return newRoot
}

// splitNonRoot moves the upper half of node into a fresh sibling and
// links it into the parent, which it returns as the link leaves it.
func (t *Tree) splitNonRoot(ctx context.Context, tx *kvclient.Tx, oid kv.OID, node *kv.Value, mid int) (kv.OID, *kv.Value, error) {
	midKey := node.Cells[mid].Key

	rightOID := t.newNodeOID()
	right := kv.NewSuper()
	right.Attrs[AttrHeight] = node.Attrs[AttrHeight]
	right.Attrs[AttrTree] = t.id
	right.Attrs[AttrNext] = node.Attrs[AttrNext]
	right.LowKey = append([]byte(nil), midKey...)
	right.HighKey = node.HighKey
	right.Cells = append([]kv.Cell(nil), node.Cells[mid:]...)
	tx.Put(rightOID, right)

	// Shrink the left half in place with deltas: the surviving cells
	// are not rewritten.
	tx.ListDelRange(oid, midKey, nil)
	tx.SetBounds(oid, node.LowKey, midKey)
	tx.AttrSet(oid, AttrNext, uint64(rightOID))

	// Link the new sibling into the parent. The parent is found by a
	// fully transactional descent to height+1 — splits are rare enough
	// that the uncached walk does not matter.
	parentOID, parent, err := t.findParent(ctx, tx, node, oid)
	if err != nil {
		return 0, nil, err
	}
	tx.ListAdd(parentOID, midKey, encodeChild(rightOID))
	if parent.NumCells()+1 > t.cfg.MaxCells {
		t.noteOversized(parentOID)
	}
	// The parent again, now under the staged link: answered from tx's
	// read set, no round trip.
	parent, err = tx.Read(ctx, parentOID)
	return parentOID, parent, err
}

// findParent locates the node at child's height+1 whose range covers
// child's low fence, reading transactionally within tx.
func (t *Tree) findParent(ctx context.Context, tx *kvclient.Tx, child *kv.Value, childOIDv kv.OID) (kv.OID, *kv.Value, error) {
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
			return 0, nil, err
		}
		h := node.Attrs[AttrHeight]
		if h == wantHeight {
			// Verify it actually routes to the child.
			c, err := childFor(node, key)
			if err != nil || c != childOIDv {
				return 0, nil, fmt.Errorf("%w: parent does not route to child", kv.ErrConflict)
			}
			return cur, node, nil
		}
		if h < wantHeight {
			return 0, nil, fmt.Errorf("%w: child deeper than tree", kv.ErrConflict)
		}
		next, err := childFor(node, key)
		if err != nil {
			return 0, nil, err
		}
		cur = next
	}
	return 0, nil, fmt.Errorf("dbt: findParent exceeded max depth")
}
