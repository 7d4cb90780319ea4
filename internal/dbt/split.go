package dbt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Splits. An oversized node is split in its own transaction, separate
// from the transaction that grew it, on the handle's splitter goroutine
// — the paper's "delegated splits": no transaction carries structural
// work, and because the split runs under the same snapshot-isolation
// transactions as everything else, readers either see the tree entirely
// before or entirely after the split. The writer that grew the leaf past
// its limit does wait, once it has committed, for the splitter's attempt
// (awaitSplit): delegation decides who does the work, not whether an
// oversized leaf may keep growing.
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
	// queued holds the nodes waiting for their split attempt, each with
	// the channel that is closed once the attempt has been made.
	queued map[kv.OID]chan struct{}
	ch     chan kv.OID
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func (t *Tree) startSplitter() {
	s := &splitter{
		t:      t,
		queued: make(map[kv.OID]chan struct{}),
		ch:     make(chan kv.OID, 1024),
		stopCh: make(chan struct{}),
	}
	t.splitter = s
	if !t.cfg.SyncSplit {
		s.wg.Add(1)
		go s.run()
	}
}

// noteOversized reports that a node looked oversized; the splitter will
// verify against committed state and split if warranted. With SyncSplit
// the caller must invoke MaintainNow after committing. The channel is
// closed when the attempt has been made; it is nil on a handle that has
// no splitter.
func (t *Tree) noteOversized(oid kv.OID) <-chan struct{} {
	s := t.splitter
	if s == nil {
		return nil
	}
	s.mu.Lock()
	done, queued := s.queued[oid]
	if !queued {
		done = make(chan struct{})
		s.queued[oid] = done
	}
	s.mu.Unlock()
	if queued || t.cfg.SyncSplit {
		return done // SyncSplit: drained by MaintainNow
	}
	select {
	case s.ch <- oid:
	default:
		// Queue full: drop; the next write to the node re-triggers.
		close(s.dequeue(oid))
	}
	return done
}

// dequeue takes oid off the queue and returns its channel, for the
// caller to close after the attempt (one nobody waits on if MaintainNow
// took oid first).
func (s *splitter) dequeue(oid kv.OID) chan struct{} {
	s.mu.Lock()
	done := s.queued[oid]
	delete(s.queued, oid)
	s.mu.Unlock()
	if done == nil {
		done = make(chan struct{})
	}
	return done
}

// awaitSplit is what a writer does once it has committed a write that
// grew leaf oid past its limit: hand the leaf to this handle's splitter
// and wait until the splitter has made its attempt. A split conflicts
// with every commit on its node since it began; a writer that went
// straight on — a statement is one planned read round and a commit —
// would land one in every attempt, the splitter would never win, and the
// leaf would grow without bound, each commit on it costlier than the
// last. Waiting after the commit costs no transaction anything: the
// next one starts at a snapshot that has the split in it. Only writers
// that grow a leaf past its limit wait, and only for their own handle.
func (t *Tree) awaitSplit(ctx context.Context, oid kv.OID) {
	done := t.noteOversized(oid)
	if done == nil || t.cfg.SyncSplit {
		return
	}
	select {
	case <-done:
	case <-t.splitter.stopCh:
	case <-ctx.Done():
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
		var done chan struct{}
		for o, d := range s.queued {
			oid, done = o, d
			break
		}
		delete(s.queued, oid)
		s.mu.Unlock()
		if done == nil {
			return nil
		}
		err := t.splitNode(ctx, oid)
		close(done)
		if err != nil {
			return err
		}
	}
}

func (s *splitter) run() {
	defer s.wg.Done()
	ctx := context.Background()
	// One reusable backoff timer across all retries the goroutine ever
	// makes; allocated on first use, Reset per retry.
	var backoff *time.Timer
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for {
		select {
		case <-s.stopCh:
			return
		case oid := <-s.ch:
			done := s.dequeue(oid)
			// Conflicts with concurrent writers are expected; retry a
			// few times with a small pause, then give up — the next
			// write re-triggers the split.
			for i := 0; i < 5; i++ {
				err := s.t.splitNode(ctx, oid)
				if err == nil || !errors.Is(err, kv.ErrConflict) {
					break
				}
				s.t.stats.SplitConflict.Add(1)
				d := time.Duration(i+1) * time.Millisecond
				if backoff == nil {
					backoff = time.NewTimer(d)
				} else {
					backoff.Reset(d)
				}
				select {
				case <-s.stopCh:
					return
				case <-backoff.C:
				}
			}
			close(done)
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

// splitNode splits oid if its committed state is oversized. A split
// that would overflow the parent queues the parent too.
func (t *Tree) splitNode(ctx context.Context, oid kv.OID) error {
	tx := t.c.Begin()
	defer func() {
		// Commit is explicit below; Abort on a committed tx is a no-op
		// guard for early returns.
		tx.Abort()
	}()
	node, err := tx.Read(ctx, oid)
	if err != nil {
		if errors.Is(err, kv.ErrNotFound) {
			return nil // already split away or deleted
		}
		return err
	}
	if node.Kind != kv.KindSuper || node.Attrs[AttrTree] != t.id {
		return nil
	}
	if node.NumCells() <= t.cfg.MaxCells {
		return nil // shrank since it was queued
	}

	mid := node.NumCells() / 2
	midKey := node.Cells[mid].Key
	// Degenerate: all cells share a prefix region such that midKey
	// equals the low fence; cannot split there.
	if compare(midKey, node.LowKey) == 0 {
		return nil
	}

	// The two halves as the split leaves them: the left keeps the node's
	// OID — unless the node is the root, whose OID stays the root's and
	// whose halves both move to fresh nodes — the right is new, on a server
	// chosen by the placement policy.
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
		return err
	}
	// The router as the split leaves it: tx's own writes over what it has
	// read, no round trip.
	routing, err := tx.Read(ctx, router)
	if err != nil {
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	t.stats.SplitsDone.Add(1)
	// Routing changed: cache the router as it is now and, when what split
	// was an inner node, both halves in place of the cached whole — or this
	// handle's next read plan under them routes nothing (or names the old
	// leaf) and every planned read behind it is wasted.
	if !t.cfg.NoCache {
		t.cache.put(router, routing)
		if node.Attrs[AttrHeight] > 0 {
			t.cache.put(leftOID, &left)
			t.cache.put(rightOID, &right)
		}
	}
	return nil
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

	// Link the new sibling into the parent. The parent is found by a
	// fully transactional descent to height+1 — splits are rare enough
	// that the uncached walk does not matter.
	parentOID, parent, err := t.findParent(ctx, tx, node, oid)
	if err != nil {
		return 0, err
	}
	tx.ListAdd(parentOID, midKey, encodeChild(rightOID))
	if parent.NumCells()+1 > t.cfg.MaxCells {
		t.noteOversized(parentOID)
	}
	return parentOID, nil
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
