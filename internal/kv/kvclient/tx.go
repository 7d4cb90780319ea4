package kvclient

import (
	"bytes"
	"context"
	"sync"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// Tx is a snapshot-isolation transaction. Reads see the state as of the
// start timestamp plus the transaction's own buffered writes; writes
// are staged locally and sent to the servers only at Commit. A Tx is
// not safe for concurrent use. It keeps every base it fetched (its read
// set, see readBase) until the statement ends (EndStatement; a
// transaction that never calls it is one statement).
type Tx struct {
	c     *Client
	txid  uint64
	start clock.Timestamp
	done  bool

	// Staged operations in program order, and a per-OID index of them
	// for read-your-own-writes (none in a read-only transaction).
	ops   []*kv.Op
	byOID map[kv.OID][]*kv.Op

	reads readSet

	hooks  []commitHook // the OnCommit hooks, one per key, in registration order
	commit *commitCore  // the commit, once it has run

	// Tests set these to act at the 2PC decision point: after every vote
	// is yes and before any decision is sent, and before the abort
	// fan-out that follows a failed prepare round.
	TestHookAfterVote   func()
	TestHookBeforeAbort func()
}

// Begin starts a transaction at a fresh snapshot. The snapshot reflects
// everything this client has previously observed (reads merge server
// clocks), so a client sees its own earlier commits.
func (c *Client) Begin() *Tx {
	return c.BeginAt(c.hlc.Now())
}

// BeginAt starts a transaction reading at the given snapshot. Used for
// time-travel reads and by layers that coordinate snapshots themselves.
func (c *Client) BeginAt(snap clock.Timestamp) *Tx {
	return &Tx{c: c, txid: c.nextTx.Add(1), start: snap}
}

// EndStatement marks the end of a statement: the read set is emptied,
// and the reads of the next statement start from the servers.
func (t *Tx) EndStatement() { t.reads = readSet{} }

// Snapshot returns the transaction's start timestamp.
func (t *Tx) Snapshot() clock.Timestamp { return t.start }

// NumWrites reports how many operations are staged.
func (t *Tx) NumWrites() int { return len(t.ops) }

// Stage appends op to the transaction's staged operations as it is: what
// the typed methods below do, and how a layer above stages the compare
// ops (kv "Compare ops") that its commit is to check. op must not change
// afterwards.
func (t *Tx) Stage(op *kv.Op) {
	if t.byOID == nil {
		t.byOID = make(map[kv.OID][]*kv.Op)
	}
	t.ops = append(t.ops, op)
	t.byOID[op.OID] = append(t.byOID[op.OID], op)
}

// Put stages a full overwrite of oid with v.
func (t *Tx) Put(oid kv.OID, v *kv.Value) {
	t.Stage(&kv.Op{Kind: kv.OpPut, OID: oid, Value: v})
}

// Delete stages removal of oid.
func (t *Tx) Delete(oid kv.OID) {
	t.Stage(&kv.Op{Kind: kv.OpDelete, OID: oid})
}

// ListAdd stages insertion of one cell into the supervalue at oid. The
// operation is "blind": it requires no prior read, so a DBT leaf insert
// costs zero read round trips.
func (t *Tx) ListAdd(oid kv.OID, key, value []byte) {
	t.Stage(&kv.Op{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: key, Value: value}})
}

// ListDelRange stages deletion of cells with keys in [from, to).
func (t *Tx) ListDelRange(oid kv.OID, from, to []byte) {
	t.Stage(&kv.Op{Kind: kv.OpListDelRange, OID: oid, From: from, To: to})
}

// AttrSet stages setting attribute attr of the supervalue at oid.
func (t *Tx) AttrSet(oid kv.OID, attr uint8, num uint64) {
	t.Stage(&kv.Op{Kind: kv.OpAttrSet, OID: oid, Attr: attr, Num: num})
}

// SetBounds stages replacement of the supervalue's fence keys.
func (t *Tx) SetBounds(oid kv.OID, low, high []byte) {
	t.Stage(&kv.Op{Kind: kv.OpSetBounds, OID: oid, Low: low, High: high})
}

// OnCommit registers f to run when the transaction has committed, before
// Commit returns — never if it aborts or its commit fails. A key
// registers once however often it is offered: the layer above stages many
// writes and wants one follow-up (a tree whose leaf the transaction grew
// past its limit splits it there).
func (t *Tx) OnCommit(key any, f func(context.Context)) {
	for _, h := range t.hooks {
		if h.key == key {
			return
		}
	}
	t.hooks = append(t.hooks, commitHook{key, f})
}

type commitHook struct {
	key any
	f   func(context.Context)
}

// Cells returns, to an OnCommit hook, the cell count the commit left oid
// with, for an object the transaction bounded with a kv.OpCmpMaxCells op,
// and whether the commit reported one: what a hook asks of an object its
// transaction added cells to without reading it (a tree leaf it may have
// to split).
func (t *Tx) Cells(oid kv.OID) (int, bool) { return t.commit.cells(oid) }

// Read returns oid's value as this transaction sees it: the snapshot
// version overlaid with the transaction's own staged operations.
func (t *Tx) Read(ctx context.Context, oid kv.OID) (*kv.Value, error) {
	v, _, err := t.ReadPart(ctx, oid, nil, nil, 0)
	return v, err
}

// ReadPart returns a windowed view of a supervalue as this transaction
// sees it: cells in [floor(from), to) capped at max, plus the node's
// total cell count; the zero window (nil, nil, 0) is the whole object.
// Only the window crosses the network, which keeps DBT point operations
// cheap on large nodes. Staged operations are overlaid (see readItem).
func (t *Tx) ReadPart(ctx context.Context, oid kv.OID, from, to []byte, max uint32) (*kv.Value, int, error) {
	res, err := t.readItem(ctx, kv.ReadBatchItem{OID: oid, Part: true, From: from, To: to, Max: max})
	if err != nil {
		return nil, 0, err
	}
	if !res.Found {
		return nil, 0, kv.ErrNotFound
	}
	return res.Value, int(res.Total), nil
}

// ReadBatch is a Prefetch of items, then each answered as ReadPart
// would. results[i] answers items[i], with Found=false for an absent
// object (never an error, unlike Read) and Version zero for one that
// carries staged operations.
func (t *Tx) ReadBatch(ctx context.Context, items []kv.ReadBatchItem) ([]kv.ReadBatchResult, error) {
	if err := t.Prefetch(ctx, items); err != nil {
		return nil, err
	}
	results := make([]kv.ReadBatchResult, len(items))
	for i := range items {
		var err error
		if results[i], err = t.readItem(ctx, items[i]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Prefetch brings the bases of items into the read set in one round (one
// RPC per owning group, in parallel), so that the reads that follow are
// answered locally until the statement ends: N serial round trips become
// one. Prefetches within a statement accumulate. Items the set holds, or
// a staged Put or Delete overwrote, are not fetched. It never changes
// what a read returns.
func (t *Tx) Prefetch(ctx context.Context, items []kv.ReadBatchItem) error {
	if t.done {
		return kv.ErrAborted
	}
	var fetch []kv.ReadBatchItem
	for i := range items {
		it := items[i].Windowed()
		if _, held := t.reads.get(it); held || lastOverwrite(t.byOID[it.OID]) >= 0 {
			continue
		}
		if fetch == nil {
			fetch = make([]kv.ReadBatchItem, 0, len(items)-i)
		}
		fetch = append(fetch, it)
	}
	if len(fetch) == 0 {
		return nil
	}
	bases := make([]kv.ReadBatchResult, len(fetch))
	if err := t.c.readItems(ctx, t.start, fetch, bases); err != nil {
		return err
	}
	ownKeys(fetch)
	for i := range fetch {
		t.reads.put(readEntry{item: fetch[i], base: bases[i]})
	}
	return nil
}

// lastOverwrite returns the index of the last Put or Delete among an
// object's staged ops, or -1: from that op on, what the servers hold is
// irrelevant to a read.
func lastOverwrite(staged []*kv.Op) int {
	for i := len(staged) - 1; i >= 0; i-- {
		if staged[i].Kind == kv.OpPut || staged[i].Kind == kv.OpDelete {
			return i
		}
	}
	return -1
}

// readItem answers one item as this transaction sees it, the one place
// a read meets the staged writes: the base (readBase, or nothing once a
// staged Put or Delete overwrote the object) with the object's staged ops
// from then on applied on top (kv.Overlay, sharing untouched cells).
// Over a fetched window staged deltas land wherever they fall (callers
// select by key) and each staged insert counts into Total, an upper
// bound used only as a split heuristic. With the whole object in hand
// (the zero window, or a staged overwrite) the window is cut from it and
// Total is exact.
func (t *Tx) readItem(ctx context.Context, it kv.ReadBatchItem) (kv.ReadBatchResult, error) {
	if t.done {
		return kv.ReadBatchResult{}, kv.ErrAborted
	}
	it = it.Windowed()
	staged := t.byOID[it.OID]
	over := lastOverwrite(staged)
	var res kv.ReadBatchResult
	if over < 0 {
		base, err := t.readBase(ctx, it)
		if err != nil || len(staged) == 0 {
			return base, err
		}
		res.Value, res.Total = base.Value, base.Total
	} else {
		staged = staged[over:]
	}
	var err error
	if res.Value, err = kv.Overlay(res.Value, staged); err != nil {
		return kv.ReadBatchResult{}, err
	}
	if res.Value == nil {
		return kv.ReadBatchResult{}, nil
	}
	res.Found = true
	for _, op := range staged {
		if op.Kind == kv.OpListAdd {
			res.Total++
		}
	}
	whole := over >= 0 || (it.From == nil && it.To == nil && it.Max == 0)
	if full := res.Value; whole && full.Kind == kv.KindSuper {
		res.Value = &kv.Value{Kind: kv.KindSuper, Attrs: full.Attrs, LowKey: full.LowKey, HighKey: full.HighKey,
			Cells: full.WindowCells(it.From, it.To, it.Max)}
		res.Total = uint32(full.NumCells())
	}
	return res, nil
}

// readEntry is one remembered answer from the servers: the item asked
// for (its keys copied) and the base result it got.
type readEntry struct {
	item kv.ReadBatchItem
	base kv.ReadBatchResult
}

// readBase is the servers' answer to one item at the snapshot, without
// the staged operations. Under snapshot isolation it cannot change, so
// the read set answers a repeat locally (a Get then a Put of one key
// reads its leaf window once; a Prefetch plans a statement's reads). The
// values are shared and must not be modified (kv.Overlay copies).
func (t *Tx) readBase(ctx context.Context, it kv.ReadBatchItem) (kv.ReadBatchResult, error) {
	if base, ok := t.reads.get(it); ok {
		return base, nil
	}
	var out [1]kv.ReadBatchResult
	items := [1]kv.ReadBatchItem{it}
	if err := t.c.readItems(ctx, t.start, items[:], out[:]); err != nil {
		return kv.ReadBatchResult{}, err
	}
	ownKeys(items[:])
	t.reads.put(readEntry{item: items[0], base: out[0]})
	return out[0], nil
}

// readSet holds a statement's read entries, the first few inline, the
// rest by a hash of the item. A hit is checked against the item, and a
// colliding entry replaces the older: a collision costs a read, never a
// wrong answer.
type readSet struct {
	first [4]readEntry
	n     int
	rest  map[uint64]readEntry
}

func (s *readSet) get(it kv.ReadBatchItem) (kv.ReadBatchResult, bool) {
	for i := range s.first[:s.n] {
		if sameItem(s.first[i].item, it) {
			return s.first[i].base, true
		}
	}
	if len(s.rest) > 0 {
		if e, ok := s.rest[itemHash(it)]; ok && sameItem(e.item, it) {
			return e.base, true
		}
	}
	return kv.ReadBatchResult{}, false
}

func (s *readSet) put(e readEntry) {
	if s.n < len(s.first) {
		s.first[s.n] = e
		s.n++
		return
	}
	if s.rest == nil {
		s.rest = make(map[uint64]readEntry)
	}
	s.rest[itemHash(e.item)] = e
}

// sameItem reports whether two windowed items ask for the same cells of
// the same object.
func sameItem(a, b kv.ReadBatchItem) bool {
	return a.OID == b.OID && a.Max == b.Max && bytes.Equal(a.From, b.From) &&
		(a.To == nil) == (b.To == nil) && bytes.Equal(a.To, b.To)
}

// itemHash is FNV-1a over a windowed item's object, cap and keys; an
// unbounded To hashes apart from an empty one.
func itemHash(it kv.ReadBatchItem) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range [...]uint64{uint64(it.OID), uint64(it.Max), uint64(len(it.From))} {
		h = (h ^ w) * prime
	}
	for _, c := range it.From {
		h = (h ^ uint64(c)) * prime
	}
	if it.To == nil {
		return h
	}
	h = (h ^ 1) * prime
	for _, c := range it.To {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// ownKeys repoints the items' keys at copies, all in one allocation:
// callers may reuse their buffers, and a remembered request must not
// change under them.
func ownKeys(items []kv.ReadBatchItem) {
	n := 0
	for i := range items {
		n += len(items[i].From) + len(items[i].To)
	}
	buf := make([]byte, 0, n)
	for i := range items {
		it := &items[i]
		from := len(buf)
		buf = append(buf, it.From...)
		to := len(buf)
		buf = append(buf, it.To...)
		it.From = buf[from:to:to]
		if it.To != nil {
			it.To = buf[to:len(buf):len(buf)]
		}
	}
}

// Commit atomically applies the staged writes: a read-only transaction
// with no communication, one touching one group by fast commit, others by
// two-phase commit. On conflict it returns kv.ErrConflict, and when a
// staged compare op fails the participant's *kv.CompareError; either way
// the transaction has no effect.
func (t *Tx) Commit(ctx context.Context) error {
	if t.done {
		return kv.ErrAborted
	}
	t.done = true
	if len(t.ops) == 0 {
		return nil // read-only: snapshot isolation needs nothing more
	}

	err := t.commitOps(ctx)
	if err == nil {
		for _, h := range t.hooks {
			h.f(ctx)
		}
	}
	return err
}

// commitOps carries out the commit its core decides (commitcore.go):
// each round of actions goes out at once, and what came of it goes back.
func (t *Tx) commitOps(ctx context.Context) error {
	core := newCommitCore(t.ops, len(t.c.groups))
	t.commit = core
	acts := core.start()
	for acts[0].kind != actDone {
		ctx, cancel := t.round(ctx, acts[0].kind)
		if round := acts; len(round) == 1 {
			acts = t.send(ctx, core, round[0])() // a fast commit: nothing built around it
		} else {
			events := make([]func() []commitAction, len(round))
			fanOut(len(round), func(i int) { events[i] = t.send(ctx, core, round[i]) })
			for _, event := range events {
				acts = event() // the round's last answer returns the next round
			}
		}
		cancel()
	}
	if core.commitTS != 0 {
		t.c.hlc.Observe(core.commitTS)
	}
	return acts[0].err
}

// round returns the context a round of kind goes out on, after the test
// hook that precedes it. The decision and the abort are driven on a
// detached, bounded context: the caller's ending mid-decision must not
// leave the commit applied on some participants and orphan-aborted on
// the rest, and the caller's context is often why the prepares failed.
func (t *Tx) round(ctx context.Context, kind actKind) (context.Context, context.CancelFunc) {
	hook, timeout := t.TestHookAfterVote, decideTimeout
	switch kind {
	case actAbort:
		hook, timeout = t.TestHookBeforeAbort, abortTimeout
	case actFastCommit, actPrepare:
		return ctx, func() {}
	}
	if hook != nil {
		hook()
	}
	return context.WithTimeout(context.WithoutCancel(ctx), timeout)
}

// send carries out one action of core and returns the event that
// answers it.
func (t *Tx) send(ctx context.Context, core *commitCore, a commitAction) func() []commitAction {
	p := &core.parts[a.p]
	method := [...]string{actFastCommit: kv.MethodFastCommit, actPrepare: kv.MethodPrepare, actDecide: kv.MethodCommit, actAbort: kv.MethodAbort}[a.kind]
	resp, f, err := t.c.call(ctx, p.server, method, func(epoch uint64) []byte {
		switch a.kind {
		case actFastCommit:
			return (&kv.FastCommitReq{TxID: t.txid, Start: t.start, Ops: p.ops, Epoch: epoch}).Encode()
		case actPrepare:
			return (&kv.PrepareReq{TxID: t.txid, Start: t.start, Ops: p.ops, Epoch: epoch}).Encode()
		case actDecide:
			return (&kv.CommitReq{TxID: t.txid, CommitTS: a.ts, Epoch: epoch}).Encode()
		}
		return (&kv.AbortReq{TxID: t.txid, Epoch: epoch}).Encode()
	})
	var proposed clock.Timestamp
	var cells []uint64
	switch {
	case a.kind >= actDecide:
		if ack, derr := kv.DecodeAck(resp); err == nil && derr == nil {
			t.c.observeAck(p.server, ack)
		}
		return func() []commitAction { return core.acked(a.p, err) }
	case err != nil && !f.replied():
		return func() []commitAction { return core.sendFailed(a.p, f != notSent, err) }
	case err != nil:
	case a.kind == actFastCommit:
		var v *kv.FastCommitResp
		if v, err = kv.DecodeFastCommitResp(resp); err == nil {
			t.c.hlc.Observe(v.Clock)
			proposed, cells = v.CommitTS, v.Cells
		}
	default:
		var v *kv.PrepareResp
		if v, err = kv.DecodePrepareResp(resp); err == nil {
			t.c.hlc.Observe(v.Clock)
			proposed, cells = v.Proposed, v.Cells
		}
	}
	return func() []commitAction { return core.voted(a.p, proposed, cells, err) }
}

// fanOut runs call(0), …, call(n-1) at once and returns when all have,
// the first on the calling goroutine: how every round a client makes to
// several groups goes out.
func fanOut(n int, call func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call(i)
		}(i)
	}
	call(0)
	wg.Wait()
}

// abortTimeout bounds the abort fan-out after a failed prepare round.
const abortTimeout = 5 * time.Second

// decideTimeout bounds the decision drive: long enough to ride out a
// failover, short enough not to wedge a caller on a dark group.
const decideTimeout = 10 * time.Second

// Abort discards the transaction. Since writes are buffered
// client-side, nothing is on the servers yet; Abort is local.
func (t *Tx) Abort() {
	t.done = true
	t.ops = nil
	t.byOID = nil
}
