package dbt

import (
	"context"
	"sort"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// Range says which cells a scan needs, so that no layer below fetches
// more than the consumer can use.
type Range struct {
	// Lo is the first key wanted; nil or empty scans from the beginning.
	Lo []byte
	// Hi is the first key NOT wanted; nil scans to the end. It is a hard
	// bound: the iterator never yields a key >= Hi, and no leaf read asks
	// the server for cells at or beyond it.
	Hi []byte
	// Limit is how many cells the consumer expects to take; <= 0 means
	// unknown. It is advisory: leaf reads are capped and read rounds sized
	// by it, but a consumer that keeps iterating past it (say, because a
	// residual predicate rejected rows) still gets every cell of [Lo, Hi),
	// at the price of further leaf reads.
	Limit int
}

// Iterator walks the cells of one Range in ascending key order within
// one transaction's snapshot. Iteration navigates by fence keys: after
// exhausting a leaf, it wants the leaf that holds the leaf's high fence.
//
// Every leaf read is windowed to [position, Hi) and, while a Limit is
// outstanding, capped at the cells the consumer still expects. A scan
// that one leaf can answer therefore costs exactly one leaf read.
//
// Leaves are read in planned rounds (see the package doc's "Scan plans"
// section): when the iterator needs a leaf and holds none, the inner-node
// cache names that leaf and the ones the rest of the scan will probably
// touch, and one read round fetches them all. Nothing runs beside the
// consumer, so an iterator abandoned part-way needs no closing.
type Iterator struct {
	t   *Tree
	tx  *kvclient.Tx
	ctx context.Context

	hi   []byte // Range.Hi
	want int    // cells the consumer still expects, counting the current one; 0 = unknown

	cells []kv.Cell // the current leaf's cells below hi
	pos   int
	next  []byte // key the next leaf read starts at; nil = exhausted
	done  bool
	err   error

	run    []kv.ReadBatchResult // the planned round's leaves not yet reached, in chain order
	runMax uint32               // the cap they were read with; 0 = none
	ahead  int                  // leaves the next round names while no Limit is outstanding
}

// NewIterator returns an iterator positioned at the first key of r. An
// empty range (Hi set and Lo >= Hi) yields nothing and reads nothing.
func (t *Tree) NewIterator(ctx context.Context, tx *kvclient.Tx, r Range) *Iterator {
	it := &Iterator{t: t, tx: tx, ctx: ctx, hi: r.Hi, want: max(r.Limit, 0), ahead: 1}
	lo, empty := r.start()
	if empty {
		it.done = true
		return it
	}
	it.load(lo)
	return it
}

// start returns the key a scan of r starts at and whether r is empty.
func (r Range) start() (lo []byte, empty bool) {
	lo = r.Lo
	if lo == nil {
		lo = []byte{}
	}
	return lo, r.Hi != nil && compare(lo, r.Hi) >= 0
}

// pastHi reports whether key lies at or beyond the scan's upper bound.
func (it *Iterator) pastHi(key []byte) bool {
	return it.hi != nil && compare(key, it.hi) >= 0
}

// load fetches the leaf containing key and positions at the first cell
// >= key.
func (it *Iterator) load(key []byte) {
	for {
		leaf, capped, err := it.fetch(key)
		if err != nil {
			it.err = err
			it.done = true
			return
		}
		end := len(leaf.Cells)
		if it.hi != nil {
			end = sort.Search(end, func(i int) bool { return compare(leaf.Cells[i].Key, it.hi) >= 0 })
		}
		it.cells = leaf.Cells[:end]
		it.pos = sort.Search(end, func(i int) bool { return compare(it.cells[i].Key, key) >= 0 })
		switch {
		case end < len(leaf.Cells):
			it.next = nil // the leaf holds a cell at or past hi
		case capped > 0 && end-max(it.pos-1, 0) == int(capped):
			// The window, which starts at the floor of key, came back full,
			// so the cap may have cut it short: the leaf may continue after
			// the last cell in hand. (A leaf read whole — a root that is a
			// leaf, an ablated handle's — also holds the cells below the
			// floor: counted, they would make a leaf the scan has finished
			// look cut short, and a scan whose Limit outlasts the leaf would
			// read it again forever.)
			it.next = upperBoundExclusive(it.cells[end-1].Key)
			if it.pastHi(it.next) {
				it.next = nil
			}
		case leaf.HighKey == nil || it.pastHi(leaf.HighKey):
			it.next = nil
		default:
			it.next = append([]byte(nil), leaf.HighKey...)
		}
		if it.pos < end {
			return
		}
		// Empty tail in this leaf: move on, or finish.
		if it.next == nil {
			it.done = true
			return
		}
		key = it.next
	}
}

// fetch returns the leaf that holds key, windowed to [key, Hi) or wider,
// and the cap the window was read with (0 = none): the next leaf of the
// planned round if that is the one, else what a new round or, failing
// that, an ordinary descent brings.
func (it *Iterator) fetch(key []byte) (*kv.Value, uint32, error) {
	win, runs := scanWindow(it.tx, key, it.hi, it.want)
	if !runs {
		it.run = nil
	} else {
		if len(it.run) == 0 {
			if err := it.readRound(win); err != nil {
				return nil, 0, err
			}
		}
		if len(it.run) > 0 {
			res := it.run[0]
			it.run = it.run[1:]
			// What a descent checks of the leaf it arrives at. A leaf that
			// fails was named by a stale cache: the rest of the run hangs
			// off it and goes too, and the descent below backs down.
			if leaf := res.Value; res.Found && leaf.Kind == kv.KindSuper && leaf.Attrs[AttrTree] == it.t.id &&
				leaf.Attrs[AttrHeight] == 0 && leaf.InBounds(key) {
				return leaf, it.runMax, nil
			}
			it.run = nil
		}
	}
	li, err := it.t.descend(it.ctx, it.tx, key, win, nil)
	return li.node, win.max, err
}

// scanWindow is the window a scan reads key's leaf through while want
// cells are outstanding, and whether it reads leaves in planned runs.
// Staged writes are overlaid on a window wherever they fall in the leaf,
// which neither a capped window can represent (cells between the cap and
// a staged cell would go missing) nor a leaf fetched before the write was
// staged: from the first staged write on, a scan goes leaf by leaf,
// uncapped, through the transaction. The iterator and PlanScan both ask
// here, so a plan names the reads the scan will make either way.
func scanWindow(tx *kvclient.Tx, key, hi []byte, want int) (win window, runs bool) {
	win = window{from: key, to: hi}
	if tx.NumWrites() > 0 {
		return win, false
	}
	win.max = scanCap(want)
	return win, true
}

// readRound plans the scan's next read round from win's start on
// (scanRun) and, when the plan names more than one leaf, reads them into
// it.run, each through win (the later ones from their first cell); a
// single leaf is left to the descent, which reads exactly that. A scan
// with neither Limit nor Hi doubles its run from one round to the next.
// The plan is routing only (routeFromCache): fetch validates every leaf
// it takes from the run.
func (it *Iterator) readRound(win window) error {
	t := it.t
	parent, idx, last := t.scanRun(win.from, it.hi, it.want, it.ahead)
	if parent == nil {
		return nil
	}
	if it.want == 0 && it.hi == nil {
		it.ahead = 2 * min(it.ahead, len(parent.Cells))
	}
	if last-idx < 2 {
		return nil
	}
	items, ok := runItems(make([]kv.ReadBatchItem, 0, last-idx), parent.Cells[idx:last], win)
	if !ok {
		return nil // the descent meets the same pointer and reports it
	}
	t.stats.NodeReads.Add(uint64(len(items)))
	run, err := it.tx.ReadBatch(it.ctx, items)
	it.run, it.runMax = run, win.max
	return err
}

// scanRun names the leaves one read round of a scan reads from key on,
// as the children [idx, last) of their cached height-1 parent (nil when
// the cache cannot route key; the rule and its reasons: the package doc's
// "Scan plans"). The run is key's leaf and the successors whose separators
// lie below hi, up to the parent's last child. Of those, while a Limit is
// outstanding, as many as want cells reach into when a leaf holds
// MaxCells/2 and the scan starts anywhere in its first: the k-th successor
// is touched for certain once want >= k*MaxCells/2 and as likely as not at
// (k-1/2)*MaxCells/2. With neither Limit nor hi the run is ahead leaves.
func (t *Tree) scanRun(key, hi []byte, want, ahead int) (parent *kv.Value, idx, last int) {
	parent, idx = t.routeFromCache(key)
	if parent == nil {
		return nil, 0, 0
	}
	n := len(parent.Cells)
	if want > 0 {
		half := max(t.cfg.MaxCells/2, 1)
		n = 1 + (2*want+half)/(2*half)
	} else if hi == nil {
		n = min(n, ahead)
	}
	last = idx + 1
	for last < len(parent.Cells) && last < idx+n && (hi == nil || compare(parent.Cells[last].Key, hi) < 0) {
		last++
	}
	return parent, idx, last
}

// runItems appends to plan the reads of a run of leaves (the cells of
// their parent that point at them) through win, the first from win.from
// and the rest from their first cell. ok is false, and plan as it was,
// if a cell is no child pointer.
func runItems(plan []kv.ReadBatchItem, leaves []kv.Cell, win window) (items []kv.ReadBatchItem, ok bool) {
	items = plan
	for _, c := range leaves {
		oid, err := childOID(c)
		if err != nil {
			return plan, false
		}
		items = append(items, kv.ReadBatchItem{OID: oid, Part: true, To: win.to, Max: win.max})
	}
	items[len(plan)].From = win.from
	return items, true
}

// PlanScan appends to plan the leaf reads the first round of a scan of r
// in tx will make, whether the iterator leaves a single leaf to its
// descent or reads a run: a caller that knows what it will read once the
// scan has answered sends both as one kvclient.Tx.Prefetch, and the scan,
// run unchanged, finds its round in the transaction's read set. It plans
// nothing where the cache cannot route.
func (t *Tree) PlanScan(plan []kv.ReadBatchItem, tx *kvclient.Tx, r Range) []kv.ReadBatchItem {
	lo, empty := r.start()
	if empty {
		return plan
	}
	want := max(r.Limit, 0)
	win, runs := scanWindow(tx, lo, r.Hi, want)
	parent, idx, last := t.scanRun(lo, r.Hi, want, 1)
	if parent == nil {
		return t.planRoot(plan)
	}
	if !runs {
		last = idx + 1
	}
	plan, _ = runItems(plan, parent.Cells[idx:last], win)
	return plan
}

// scanCap is the cap of a scan's leaf reads while want cells are
// outstanding (0 = unknown: no cap): the floor cell (possibly a
// predecessor of the key), the cells still wanted, and one more that
// tells a window cut short by the cap from a leaf that simply ended.
func scanCap(want int) uint32 {
	if want <= 0 {
		return 0
	}
	return uint32(want) + 2
}

// Valid reports whether the iterator is positioned at a cell.
func (it *Iterator) Valid() bool { return !it.done && it.err == nil }

// Err returns the first error the iterator encountered, if any.
func (it *Iterator) Err() error { return it.err }

// Key returns the current cell's key. Valid must be true.
func (it *Iterator) Key() []byte { return it.cells[it.pos].Key }

// Value returns the current cell's value. Valid must be true.
func (it *Iterator) Value() []byte { return it.cells[it.pos].Value }

// Next advances to the following cell, fetching the next leaf when the
// current one is exhausted.
func (it *Iterator) Next() {
	if it.done || it.err != nil {
		return
	}
	it.pos++
	if it.want > 0 {
		it.want-- // reaching 0 means the consumer outran its Limit: no cap from here on
	}
	if it.pos < len(it.cells) {
		return
	}
	if it.next == nil {
		it.done = true
		return
	}
	it.load(it.next)
}

// Scan collects up to limit cells starting at the first key >= start.
// A negative limit collects everything. It is a convenience wrapper
// over the iterator.
func (t *Tree) Scan(ctx context.Context, tx *kvclient.Tx, start []byte, limit int) ([]kv.Cell, error) {
	if limit == 0 {
		return nil, nil
	}
	var out []kv.Cell
	it := t.NewIterator(ctx, tx, Range{Lo: start, Limit: limit})
	for ; it.Valid(); it.Next() {
		out = append(out, kv.Cell{Key: it.Key(), Value: it.Value()})
		if len(out) == limit {
			break
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
