package dbt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Errors returned by tree operations.
var (
	// ErrKeyNotFound reports a Get or Delete of an absent key.
	ErrKeyNotFound = errors.New("dbt: key not found")
	// ErrTreeNotFound reports opening a tree whose root does not exist,
	// or a descent that found the root gone: the tree was dropped.
	ErrTreeNotFound = errors.New("dbt: tree not found")
	// errStale is an internal signal that a descent followed stale
	// routing information and must back down.
	errStale = errors.New("dbt: stale descent")
)

// Stats counts tree-level activity for one handle.
type Stats struct {
	Descents      atomic.Uint64
	BackDowns     atomic.Uint64 // descents retried due to stale cache
	CacheHits     atomic.Uint64 // inner-node reads served from cache
	NodeReads     atomic.Uint64 // transactional node reads (RPC)
	SplitsDone    atomic.Uint64
	SplitConflict atomic.Uint64
}

// StatsSnapshot is a plain copy of the counters. Evictions counts
// inner-node cache entries displaced by the cache's bound
// (cacheMaxNodes).
type StatsSnapshot struct {
	Descents, BackDowns, CacheHits, NodeReads, SplitsDone, SplitConflict uint64
	Evictions                                                            uint64
}

// Tree is a client handle to one distributed balanced tree. Handles are
// safe for concurrent use; each operation runs inside a caller-supplied
// kv transaction, so one SQL statement can touch many trees atomically.
type Tree struct {
	c    *kvclient.Client
	id   uint64
	root kv.OID
	cfg  Config

	cache *nodeCache
	stats Stats
	place atomic.Uint64 // round-robin placement counter

	// rootLeaf says the last read of the root found it a leaf. The cache
	// holds inner nodes only, so while it is set the root is where the
	// cache routes every key (rootIsLeaf); a root grown since fails the
	// route's height compare, and the descent that reads it clears it.
	rootLeaf atomic.Bool

	// splitting holds the nodes this handle's writers are splitting, each
	// with the channel closed once that split and what it led to are done.
	splitMu   sync.Mutex
	splitting map[kv.OID]chan struct{}
}

// Create writes an empty tree with the given id and returns a handle to
// it. The root starts as an empty leaf covering the whole key space.
func Create(ctx context.Context, c *kvclient.Client, id uint64, cfg Config) (*Tree, error) {
	t := newTree(c, id, cfg)
	root := kv.NewSuper()
	root.Attrs[AttrHeight] = 0
	root.Attrs[AttrTree] = id
	root.LowKey = []byte{} // "" is the minimum key: unbounded below
	root.HighKey = nil     // unbounded above
	tx := c.Begin()
	tx.Put(t.root, root)
	if err := tx.Commit(ctx); err != nil {
		return nil, fmt.Errorf("dbt: creating tree %d: %w", id, err)
	}
	t.rootLeaf.Store(true)
	return t, nil
}

// Open returns a handle to an existing tree, verifying the root exists.
func Open(ctx context.Context, c *kvclient.Client, id uint64, cfg Config) (*Tree, error) {
	t := newTree(c, id, cfg)
	tx := c.Begin()
	root, err := tx.Read(ctx, t.root)
	if err != nil {
		if errors.Is(err, kv.ErrNotFound) {
			return nil, ErrTreeNotFound
		}
		return nil, err
	}
	t.noteRoot(root)
	return t, nil
}

// OpenUnchecked returns a handle without verifying the root exists.
// Used when the tree's root was created inside a not-yet-committed
// transaction (e.g. CREATE INDEX backfill): operations through that
// transaction see the staged root, while a fresh verification
// transaction would not.
func OpenUnchecked(c *kvclient.Client, id uint64, cfg Config) *Tree {
	return newTree(c, id, cfg)
}

// Drop stages in tx the deletion of every node of the tree as tx sees it,
// reading the inner nodes level by level, one round each, and no leaf. A
// handle that outlives the drop finds none of the nodes it cached routes
// to, and then no root: ErrTreeNotFound, never the dropped rows.
func (t *Tree) Drop(ctx context.Context, tx *kvclient.Tx) error {
	level := []kv.ReadBatchItem{{OID: t.root}}
	for len(level) > 0 {
		res, err := tx.ReadBatch(ctx, level)
		if err != nil {
			return err
		}
		var next []kv.ReadBatchItem
		for i, r := range res {
			tx.Delete(level[i].OID)
			if !r.Found || r.Value.Attrs[AttrHeight] == 0 {
				continue
			}
			for _, cell := range r.Value.Cells {
				if child, err := childOID(cell); err == nil && r.Value.Attrs[AttrHeight] == 1 {
					tx.Delete(child)
				} else if err == nil {
					next = append(next, kv.ReadBatchItem{OID: child})
				}
			}
		}
		level = next
	}
	return nil
}

func newTree(c *kvclient.Client, id uint64, cfg Config) *Tree {
	return &Tree{
		c:         c,
		id:        id,
		root:      RootOID(id, c.NumServers()),
		cfg:       cfg.withDefaults(),
		cache:     newNodeCache(),
		splitting: make(map[kv.OID]chan struct{}),
	}
}

// ID returns the tree id.
func (t *Tree) ID() uint64 { return t.id }

// Client returns the underlying kv client.
func (t *Tree) Client() *kvclient.Client { return t.c }

// Close releases the handle. A handle owns no goroutine — its writers
// split what they grow — so there is nothing to stop; the tree data is
// unaffected.
func (t *Tree) Close() {}

// Stats returns a snapshot of the handle's counters.
func (t *Tree) Stats() StatsSnapshot {
	return StatsSnapshot{
		Descents:      t.stats.Descents.Load(),
		BackDowns:     t.stats.BackDowns.Load(),
		CacheHits:     t.stats.CacheHits.Load(),
		NodeReads:     t.stats.NodeReads.Load(),
		SplitsDone:    t.stats.SplitsDone.Load(),
		SplitConflict: t.stats.SplitConflict.Load(),
		Evictions:     t.cache.evicted.Load(),
	}
}

// CacheSize reports the number of cached inner nodes (tests).
func (t *Tree) CacheSize() int { return t.cache.len() }

// ClearCache drops the inner-node cache, and what the handle knows of
// the root's height (tests and ablations).
func (t *Tree) ClearCache() {
	t.cache.clear()
	t.rootLeaf.Store(false)
}

// noteRoot records whether root, the root as just read, is a leaf.
func (t *Tree) noteRoot(root *kv.Value) {
	leaf := root.Kind == kv.KindSuper && root.Attrs[AttrTree] == t.id && root.Attrs[AttrHeight] == 0
	if t.rootLeaf.Load() != leaf {
		t.rootLeaf.Store(leaf)
	}
}

// rootIsLeaf reports whether the cache routes every key to the root: the
// root was a leaf when last read, and the handle is not ablated.
func (t *Tree) rootIsLeaf() bool {
	return !t.cfg.Ablated() && t.rootLeaf.Load()
}

// newNodeOID mints an OID for a fresh node, placing nodes round-robin
// across the servers: spreading the tree is the paper's reason for
// distribution, "to scale the performance of the DBT".
func (t *Tree) newNodeOID() kv.OID {
	return t.c.NewOID(uint16(t.place.Add(1) % uint64(t.c.NumServers())))
}

// childOID decodes the child pointer stored in an inner-node cell.
func childOID(cell kv.Cell) (kv.OID, error) {
	if len(cell.Value) != 8 {
		return 0, fmt.Errorf("dbt: corrupt child pointer (%d bytes)", len(cell.Value))
	}
	return kv.OID(binary.BigEndian.Uint64(cell.Value)), nil
}

// encodeChild encodes a child pointer for an inner-node cell.
func encodeChild(oid kv.OID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(oid))
	return b[:]
}

// childFor routes key through inner node v: the child is the cell with
// the greatest key <= search key (cell keys are the children's
// inclusive lower bounds).
func childFor(v *kv.Value, key []byte) (kv.OID, error) {
	idx, found := cellFloor(v, key)
	if idx < 0 {
		return 0, fmt.Errorf("%w: key below first separator", errStale)
	}
	_ = found
	return childOID(v.Cells[idx])
}

// cellFloor returns the index of the last cell with Key <= key, or -1.
func cellFloor(v *kv.Value, key []byte) (int, bool) {
	// cellIndex-equivalent search over the sorted cells.
	lo, hi := 0, len(v.Cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if compare(v.Cells[mid].Key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1, false
	}
	idx := lo - 1
	return idx, compare(v.Cells[idx].Key, key) == 0
}

func compare(a, b []byte) int { return bytes.Compare(a, b) }

// window describes which cells of the leaf a descent actually needs.
// Point operations request a single-key window; iterators request
// their range's remainder, capped while a limit is outstanding; the
// zero window is the whole node (NoDelta rewrites, ablations).
type window struct {
	from, to []byte
	max      uint32
}

// whole reports whether w is the zero window.
func (w window) whole() bool { return w.from == nil && w.to == nil && w.max == 0 }

func pointWindow(key []byte) window {
	// Max 2: the floor cell (possibly the predecessor) plus the key's
	// own cell.
	return window{from: key, to: upperBoundExclusive(key), max: 2}
}

// leafInfo is the result of a descent: the leaf (possibly a windowed
// view of it) and its total cell count for split heuristics.
type leafInfo struct {
	oid   kv.OID
	node  *kv.Value
	total int
}

// descend is the core search. It walks from the root to the leaf whose
// fence interval contains key, using cached inner nodes when allowed
// and validating at the leaf. On stale routing (fence miss, dangling
// pointer) it invalidates the cached path and retries — the back-down
// search. The final cache-free attempt is guaranteed to terminate
// because transactional reads see a consistent snapshot of the tree.
// Leaf reads fetch only the requested window unless the configuration
// disables partial reads; every other node is read whole. replan, if
// set, runs on a retry that uses the cache, just before its leaf read:
// a caller with more keys to read plans their leaves, and this one's,
// through the path the retry has refreshed, so one round reads them all.
func (t *Tree) descend(ctx context.Context, tx *kvclient.Tx, key []byte, win window, replan func() error) (leafInfo, error) {
	t.stats.Descents.Add(1)
	for attempt := 0; attempt < maxDescentAttempts; attempt++ {
		// The last two attempts bypass the cache entirely.
		useCache := !t.cfg.NoCache && attempt < maxDescentAttempts-2
		beforeLeaf := replan
		if attempt == 0 || !useCache {
			beforeLeaf = nil
		}
		li, err := t.descendOnce(ctx, tx, key, win, useCache, beforeLeaf)
		if err == nil {
			return li, nil
		}
		if !errors.Is(err, errStale) {
			return leafInfo{}, err
		}
		t.stats.BackDowns.Add(1)
	}
	return leafInfo{}, fmt.Errorf("dbt: descent for key %q did not converge", key)
}

func (t *Tree) descendOnce(ctx context.Context, tx *kvclient.Tx, key []byte, win window, useCache bool, beforeLeaf func() error) (leafInfo, error) {
	cur := t.root
	var path []kv.OID
	expectLeaf := false // unknown height at the root: read it whole
	const maxDepth = 64
	for depth := 0; depth < maxDepth; depth++ {
		var node *kv.Value
		total := 0
		fromCache := false
		// A node is read through the caller's window only where a leaf is
		// expected and the configuration allows; anything else is read
		// whole, and only a whole inner node may enter the cache.
		nodeWin := window{}
		if expectLeaf && !t.cfg.NoPartial {
			nodeWin = win
		}
		if expectLeaf && beforeLeaf != nil {
			if err := beforeLeaf(); err != nil {
				return leafInfo{}, err
			}
		}
		if useCache {
			if v, ok := t.cache.get(cur); ok {
				node = v
				total = v.NumCells()
				fromCache = true
				t.stats.CacheHits.Add(1)
			}
		}
		if node == nil {
			t.stats.NodeReads.Add(1)
			v, n, err := tx.ReadPart(ctx, cur, nodeWin.from, nodeWin.to, nodeWin.max)
			if err != nil {
				if errors.Is(err, kv.ErrNotFound) {
					t.cache.invalidate(append(path, cur)...)
					if cur == t.root {
						// The root's OID never changes (RootOID, growRoot):
						// an absent root is a dropped tree.
						return leafInfo{}, ErrTreeNotFound
					}
					// Dangling pointer: the node was moved by a split
					// newer than our routing information.
					return leafInfo{}, fmt.Errorf("%w: dangling node %v", errStale, cur)
				}
				return leafInfo{}, err
			}
			node, total = v, n
			if cur == t.root {
				t.noteRoot(node)
			}
		}
		if node.Kind != kv.KindSuper || node.Attrs[AttrTree] != t.id {
			t.cache.invalidate(append(path, cur)...)
			return leafInfo{}, fmt.Errorf("%w: foreign node %v", errStale, cur)
		}
		if node.Attrs[AttrHeight] == 0 {
			// Leaf: always read transactionally, and the fence check is
			// what validates the whole (possibly stale) cached path.
			if fromCache {
				// Leaves are never cached; a cached leaf means the node
				// shrank from inner to leaf under an old OID — treat as
				// stale routing.
				t.cache.invalidate(append(path, cur)...)
				return leafInfo{}, fmt.Errorf("%w: cached node became leaf", errStale)
			}
			if !node.InBounds(key) {
				t.cache.invalidate(append(path, cur)...)
				return leafInfo{}, fmt.Errorf("%w: leaf fence miss", errStale)
			}
			return leafInfo{oid: cur, node: node, total: total}, nil
		}
		// Inner node. Freshly full-read nodes are validated by their
		// own fences and enter the cache; windowed reads that turned
		// out to be inner nodes still route via their floor cell but
		// are not cacheable.
		if !fromCache {
			if !node.InBounds(key) {
				t.cache.invalidate(append(path, cur)...)
				return leafInfo{}, fmt.Errorf("%w: inner fence miss", errStale)
			}
			if useCache && nodeWin.whole() {
				t.cache.put(cur, node)
			}
		}
		child, err := childFor(node, key)
		if err != nil {
			t.cache.invalidate(append(path, cur)...)
			return leafInfo{}, err
		}
		path = append(path, cur)
		cur = child
		expectLeaf = node.Attrs[AttrHeight] == 1
	}
	t.cache.clear()
	return leafInfo{}, fmt.Errorf("%w: descent exceeded max depth", errStale)
}

// Get returns the value stored under key, as seen by tx's snapshot
// (including tx's own buffered writes).
func (t *Tree) Get(ctx context.Context, tx *kvclient.Tx, key []byte) ([]byte, error) {
	return t.get(ctx, tx, key, nil)
}

// get is Get, with descend's replan.
func (t *Tree) get(ctx context.Context, tx *kvclient.Tx, key []byte, replan func() error) ([]byte, error) {
	li, err := t.descend(ctx, tx, key, pointWindow(key), replan)
	if err != nil {
		return nil, err
	}
	v, ok := li.node.ListGet(key)
	if !ok {
		return nil, ErrKeyNotFound
	}
	return v, nil
}

// Put inserts or replaces key's value within tx. The write is staged as
// a one-cell delta (unless NoDelta), so committing it costs no
// read-modify-write of the leaf.
func (t *Tree) Put(ctx context.Context, tx *kvclient.Tx, key, value []byte) error {
	win := pointWindow(key)
	if t.cfg.NoDelta {
		win = window{} // rewriting the node needs all of it
	}
	li, err := t.descend(ctx, tx, key, win, nil)
	if err != nil {
		return err
	}
	if t.cfg.NoDelta {
		// Ablation: rewrite the whole leaf.
		clone := li.node.Clone()
		clone.ListAdd(key, value)
		tx.Put(li.oid, clone)
	} else {
		tx.ListAdd(li.oid, key, value)
	}
	cells := li.total // of the leaf once this write is in
	if _, replaces := li.node.ListGet(key); !replaces {
		cells++
	}
	if cells > t.cfg.MaxCells {
		oid := li.oid
		tx.OnCommit(splitOf{t, oid}, func(ctx context.Context) { t.split(ctx, oid, key) })
	}
	return nil
}

// splitOf names a leaf's pending split among a transaction's OnCommit
// hooks, so that many writes to one leaf ask for one split.
type splitOf struct {
	t   *Tree
	oid kv.OID
}

// Delete removes key within tx. Deleting an absent key returns
// ErrKeyNotFound (and stages nothing).
func (t *Tree) Delete(ctx context.Context, tx *kvclient.Tx, key []byte) error {
	win := pointWindow(key)
	if t.cfg.NoDelta {
		win = window{}
	}
	li, err := t.descend(ctx, tx, key, win, nil)
	if err != nil {
		return err
	}
	if _, ok := li.node.ListGet(key); !ok {
		return ErrKeyNotFound
	}
	if t.cfg.NoDelta {
		clone := li.node.Clone()
		clone.ListDelRange(key, upperBoundExclusive(key))
		tx.Put(li.oid, clone)
	} else {
		tx.ListDelRange(li.oid, key, upperBoundExclusive(key))
	}
	return nil
}

// upperBoundExclusive returns the smallest key greater than key, so
// [key, bound) covers exactly key.
func upperBoundExclusive(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}
