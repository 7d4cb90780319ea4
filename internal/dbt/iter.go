package dbt

import (
	"bytes"
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
	// unknown. It is advisory: leaf reads are capped and the prefetcher
	// paced by it, but a consumer that keeps iterating past it (say,
	// because a residual predicate rejected rows) still gets every cell
	// of [Lo, Hi), at the price of further leaf reads.
	Limit int
}

// Iterator walks the cells of one Range in ascending key order within
// one transaction's snapshot. Iteration navigates by fence keys: after
// exhausting a leaf, it descends for the leaf's high fence. Because
// inner-node descents are served by the cache, advancing to the next
// leaf costs one transactional leaf read — the same as following a
// sibling pointer, but immune to stale links.
//
// Every leaf read is windowed to [position, Hi) and, while a Limit is
// outstanding, capped at the cells the consumer still expects. A scan
// that one leaf can answer therefore costs exactly one leaf read.
//
// With readahead enabled (the default; see the package doc's "Scan
// readahead" section) later leaf reads are pipelined: once the leaf in
// hand cannot finish the scan — its high fence is below Hi and it holds
// fewer cells than the outstanding Limit — a background goroutine
// resolves the following leaves on a snapshot ReadView while the
// consumer drains the current one, and the synchronous path remains the
// fallback whenever a prefetch cannot be used. Call Close on an iterator
// abandoned before exhaustion so a running prefetcher is released
// promptly.
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

	ra    *readahead
	raOff bool // readahead permanently disabled for this iterator
}

// readahead is the iterator's leaf prefetcher: one goroutine following
// the fence-key chain on a snapshot ReadView, delivering each leaf on
// a channel whose capacity (plus the descent in flight) bounds how far
// it runs ahead of the consumer. The goroutine closes the channel when
// it stops, whether the chain ended or the scan's Limit was covered.
type readahead struct {
	cancel context.CancelFunc
	ch     chan raResult
}

// raResult is one prefetched leaf: the fence key it was descended for,
// so the consumer can verify it is being handed the leaf it wants.
type raResult struct {
	key []byte
	li  leafInfo
	err error
}

// NewIterator returns an iterator positioned at the first key of r. An
// empty range (Hi set and Lo >= Hi) yields nothing and reads nothing.
func (t *Tree) NewIterator(ctx context.Context, tx *kvclient.Tx, r Range) *Iterator {
	it := &Iterator{t: t, tx: tx, ctx: ctx, hi: r.Hi, want: max(r.Limit, 0)}
	it.raOff = t.cfg.NoReadahead || t.cfg.Ablated()
	lo := r.Lo
	if lo == nil {
		lo = []byte{}
	}
	if r.Hi != nil && compare(lo, r.Hi) >= 0 {
		it.done = true
		return it
	}
	it.load(lo)
	return it
}

// pastHi reports whether key lies at or beyond the scan's upper bound.
func (it *Iterator) pastHi(key []byte) bool {
	return it.hi != nil && compare(key, it.hi) >= 0
}

// load fetches the leaf containing key and positions at the first cell
// >= key.
func (it *Iterator) load(key []byte) {
	for {
		li, ok := it.takeReadahead(key)
		capped := false
		if !ok {
			win := window{from: key, to: it.hi}
			// The cap is the floor cell (possibly a predecessor of key),
			// the cells still wanted, and one more that tells a window cut
			// short by the cap from a leaf that simply ended. Staged
			// writes are overlaid on the window wherever they fall in the
			// leaf, which a capped window cannot represent (cells between
			// the cap and a staged cell would go missing), so the cap is
			// used on clean transactions only.
			if it.want > 0 && it.tx.NumWrites() == 0 {
				win.max = uint32(it.want) + 2
				capped = true
			}
			var err error
			li, err = it.t.descend(it.ctx, it.tx, key, win)
			if err != nil {
				it.err = err
				it.done = true
				return
			}
		}
		leaf := li.node
		end := len(leaf.Cells)
		if it.hi != nil {
			end = sort.Search(end, func(i int) bool { return compare(leaf.Cells[i].Key, it.hi) >= 0 })
		}
		it.cells = leaf.Cells[:end]
		it.pos = sort.Search(end, func(i int) bool { return compare(it.cells[i].Key, key) >= 0 })
		inHand := end - it.pos
		switch {
		case end < len(leaf.Cells):
			it.next = nil // the leaf holds a cell at or past hi
		case capped && inHand > it.want:
			// A capped window holds at most one cell below key, so only
			// one cut short by the cap can hold more than want cells from
			// key on: the leaf may continue after the last cell in hand.
			it.next = upperBoundExclusive(it.cells[end-1].Key)
			if it.pastHi(it.next) {
				it.next = nil
			}
		case leaf.HighKey == nil || it.pastHi(leaf.HighKey):
			it.next = nil
		default:
			it.next = append([]byte(nil), leaf.HighKey...)
		}
		it.maybeReadahead(inHand)
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

// maybeReadahead starts the prefetcher for the upcoming leaves, unless
// one is already running, the scan can end in the current leaf (there is
// no next one, or its inHand cells cover the outstanding Limit), or the
// iterator must stay synchronous. Staged writes disable readahead for
// good: the prefetcher reads the bare snapshot, and from the first
// staged write on, every leaf must be overlaid through the transaction.
func (it *Iterator) maybeReadahead(inHand int) {
	if it.ra != nil || it.raOff || it.next == nil || (it.want > 0 && inHand >= it.want) {
		return
	}
	if it.tx.NumWrites() > 0 {
		it.raOff = true
		return
	}
	ctx, cancel := context.WithCancel(it.ctx)
	// Channel capacity plus the fetch in flight = ReadaheadLeaves (1–2)
	// leaves ahead of the consumer, at most.
	ch := make(chan raResult, it.t.cfg.ReadaheadLeaves-1)
	view := it.tx.View()
	t := it.t
	hi := it.hi
	batch := it.t.cfg.ReadaheadLeaves
	// need is how many cells the following leaves still have to supply;
	// the prefetcher stops once it has delivered that many. Zero means
	// the scan has no Limit outstanding: follow the chain to its end.
	need := 0
	if it.want > 0 {
		need = it.want - inHand
	}
	go func(key []byte) {
		defer close(ch)
		// deliver sends one prefetched leaf; false means the iterator is
		// gone (context cancelled), the chain ended at this leaf, or the
		// leaves delivered so far cover the scan's Limit.
		deliver := func(key []byte, li leafInfo, err error) bool {
			select {
			case ch <- raResult{key: key, li: li, err: err}:
			case <-ctx.Done():
				return false
			}
			if err != nil || li.node.HighKey == nil || (hi != nil && compare(li.node.HighKey, hi) >= 0) {
				return false
			}
			if need > 0 {
				if need -= len(li.node.Cells); need <= 0 {
					return false
				}
			}
			return true
		}
		for {
			// Fast path: when the inner-node cache can predict a run of
			// upcoming leaves on ONE server slot, fetch the whole run
			// with one batched RPC instead of one round trip per leaf.
			// The run is trimmed to the leading same-slot prefix because
			// batching pays off only by consolidating RPCs — a cross-slot
			// pair costs the same two RPCs either way, plus fan-out
			// overhead. Prediction is routing only — each fetched leaf is
			// fence-checked against the chain and the run is abandoned
			// (falling back to a validated descent) the moment a leaf is
			// missing, foreign, or no longer covers its fence key. Extra
			// cells a leaf read returns below the fence are harmless: the
			// consumer positions by binary search inside every leaf.
			if run := t.sameSlotPrefix(t.leafRunFromCache(nil, key, batch)); len(run) >= 2 {
				items := make([]kv.ReadBatchItem, len(run))
				for i, oid := range run {
					items[i] = kv.ReadBatchItem{OID: oid, Part: true, To: hi}
				}
				t.stats.NodeReads.Add(uint64(len(items)))
				results, err := view.ReadBatch(ctx, items)
				if err != nil {
					// Transport trouble: let the synchronous path report it.
					deliver(key, leafInfo{}, err)
					return
				}
				advanced := false
				for i := range results {
					leaf := results[i].Value
					if !results[i].Found || leaf.Kind != kv.KindSuper ||
						leaf.Attrs[AttrTree] != t.id || leaf.Attrs[AttrHeight] != 0 ||
						!leaf.InBounds(key) {
						break
					}
					if !deliver(key, leafInfo{oid: run[i], node: leaf, total: int(results[i].Total)}, nil) {
						return
					}
					advanced = true
					key = append([]byte(nil), leaf.HighKey...)
				}
				if advanced {
					continue
				}
				// The first predicted leaf was already stale: descend.
			}
			li, err := t.descend(ctx, view, key, window{from: key, to: hi})
			if !deliver(key, li, err) {
				return
			}
			key = append([]byte(nil), li.node.HighKey...)
		}
	}(it.next)
	it.ra = &readahead{cancel: cancel, ch: ch}
}

// takeReadahead consumes the prefetched leaf for key, if one is (or
// will shortly be) available and still usable. A miss of any kind —
// no prefetcher running, staged writes appeared (the prefetch carries
// no overlay), the prefetcher stopped or failed, or it answered a
// different fence key — shuts the pipeline down and sends the caller to
// the synchronous path, which recomputes the same leaf under the full
// overlay and back-down rules. Discarding is always safe: prefetched
// leaves are plain snapshot reads the synchronous descent reproduces
// byte for byte.
func (it *Iterator) takeReadahead(key []byte) (leafInfo, bool) {
	if it.ra == nil {
		return leafInfo{}, false
	}
	if it.tx.NumWrites() > 0 {
		it.stopReadahead()
		return leafInfo{}, false
	}
	var (
		res raResult
		ok  bool
	)
	select {
	case res, ok = <-it.ra.ch:
	case <-it.ctx.Done():
	}
	if !ok || res.err != nil || !bytes.Equal(res.key, key) {
		it.stopReadahead()
		return leafInfo{}, false
	}
	return res.li, true
}

// stopReadahead tears the prefetcher down (it exits on the cancelled
// context even if parked on a send) and pins the iterator to the
// synchronous path.
func (it *Iterator) stopReadahead() {
	if it.ra != nil {
		it.ra.cancel()
		it.ra = nil
	}
	it.raOff = true
}

// Close releases the iterator's background resources. It is idempotent
// and safe on exhausted iterators; call it whenever an iterator may be
// abandoned before exhaustion (e.g. a LIMITed scan), or a running
// prefetch goroutine lingers until the surrounding context ends.
func (it *Iterator) Close() {
	it.stopReadahead()
	it.done = true
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
	defer it.Close()
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
