package kvclient

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// Tx is a snapshot-isolation transaction. Reads see the state as of the
// start timestamp plus the transaction's own buffered writes; writes
// are staged locally and sent to the servers only at Commit. A Tx is
// not safe for concurrent use.
//
// A transaction keeps every base it fetched from the servers (its read
// set, see readBase) until the end of the current statement: the layer
// above marks where a statement ends (EndStatement), and a transaction
// that never does is one statement. The set is therefore bounded by what
// one statement read, and nothing one plan fetched is dropped for
// another's sake.
type Tx struct {
	c     *Client
	txid  uint64
	start clock.Timestamp
	done  bool

	// Staged operations in program order, plus a per-OID index used for
	// read-your-own-writes, made by the first write: a read-only
	// transaction allocates none.
	ops   []*kv.Op
	byOID map[kv.OID][]*kv.Op

	reads readSet

	// after holds the OnCommit hooks and what they may ask; nil until
	// the first is registered, so that a transaction without hooks (every
	// read) pays nothing for them.
	after *afterCommit

	// TestHookAfterVote, when non-nil, runs once after every
	// participant voted yes and before any phase-two request is sent.
	// Chaos tests use it to crash servers at the 2PC decision point;
	// production code leaves it nil.
	TestHookAfterVote func()
	// TestHookBeforeAbort, when non-nil, runs before the abort fan-out
	// that follows a failed prepare round. Tests use it to cancel the
	// commit's context at the moment abortAll starts.
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
	if t.after == nil {
		t.after = &afterCommit{}
		t.after.hooks = t.after.oneHook[:0]
	}
	for _, h := range t.after.hooks {
		if h.key == key {
			return
		}
	}
	t.after.hooks = append(t.after.hooks, commitHook{key, f})
}

// afterCommit is what a transaction keeps for its OnCommit hooks: the
// hooks, one per key in the order they were registered, and what the
// last commit attempt's replies reported for the objects the transaction
// bounded with kv.OpCmpMaxCells (Cells). The first of each lies inline.
type afterCommit struct {
	hooks    []commitHook
	oneHook  [1]commitHook
	cells    []cellsReply
	oneCells [1]cellsReply
}

type commitHook struct {
	key any
	f   func(context.Context)
}

// Cells returns, to an OnCommit hook, the cell count the commit left oid
// with, for an object the transaction bounded with a kv.OpCmpMaxCells op,
// and whether the commit reported one: what a hook asks of an object its
// transaction added cells to without reading it (a tree leaf it may have
// to split). A transaction with no hooks keeps no counts.
func (t *Tx) Cells(oid kv.OID) (int, bool) {
	if t.after == nil {
		return 0, false
	}
	for _, r := range t.after.cells {
		j := 0
		for _, op := range r.ops {
			if op.Kind != kv.OpCmpMaxCells {
				continue
			}
			if op.OID == oid {
				return int(r.cells[j]), true
			}
			j++
		}
	}
	return 0, false
}

// cellsReply is one participant's reply to a commit: cells answers, in op
// order, the kv.OpCmpMaxCells ops among ops, the ops it was sent.
type cellsReply struct {
	ops   []*kv.Op
	cells []uint64
}

// noteCells records a participant's cell counts. A reply that does not
// answer each of its bounds reports nothing.
func (t *Tx) noteCells(ops []*kv.Op, cells []uint64) {
	if len(cells) == 0 || t.after == nil {
		return
	}
	n := 0
	for _, op := range ops {
		if op.Kind == kv.OpCmpMaxCells {
			n++
		}
	}
	if n != len(cells) {
		return
	}
	if t.after.cells == nil {
		t.after.cells = t.after.oneCells[:0]
	}
	t.after.cells = append(t.after.cells, cellsReply{ops, cells})
}

// Read returns oid's value as this transaction sees it: the snapshot
// version overlaid with the transaction's own staged operations.
func (t *Tx) Read(ctx context.Context, oid kv.OID) (*kv.Value, error) {
	v, _, err := t.ReadPart(ctx, oid, nil, nil, 0)
	return v, err
}

// ReadPart returns a windowed view of a supervalue as this transaction
// sees it: cells in [floor(from), to) capped at max, plus the node's
// total cell count; the zero window (nil, nil, 0) is the whole object.
// Compared with Read it ships only the needed cells over the network —
// the mechanism that keeps DBT point operations off the bandwidth cliff
// for large nodes. The transaction's staged operations are overlaid on
// the window (see readItem for what that does to the cells and the
// count).
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

// ReadBatch performs len(items) reads at the transaction's snapshot in
// as few RPCs as the data's placement allows: a Prefetch of the items,
// then each answered from the read set. Staged operations are overlaid
// item by item, so read-your-own-writes holds exactly as for ReadPart.
//
// Results are positional: results[i] answers items[i], with Found=false
// for absent objects (never an error, unlike Read). Version is zero for
// items that carry staged operations.
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

// Prefetch brings the bases of items into the read set with one
// Client.readItems round — one RPC per owning group, the groups in
// parallel — so that the reads that follow, however they are issued
// (ReadPart, Read, ReadBatch), are answered locally until the statement
// ends. It is how a caller that can tell beforehand what it will read
// turns N serial round trips into one, and as many callers as like may
// plan within one statement: their bases accumulate. Items the set
// already holds, and items a staged Put or Delete has overwritten, are
// not fetched; if none is left there is no round. Prefetching is never
// needed for correctness and never changes what a read returns: an item
// that was not prefetched is simply read when it is asked for.
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

// readItem answers one item as this transaction sees it, and is the one
// place a read meets the staged writes. The base is the servers' answer
// at the snapshot (readBase: the read set, else the servers), or nothing
// at all once a staged Put or Delete has overwritten the object. The
// object's staged ops from that point on are applied on top
// (kv.Overlay), so the result shares its untouched cells with the base.
//
// Over a fetched window, staged deltas land wherever they fall in the
// node — extra cells outside the window are harmless, the callers select
// by key. When the whole object is in hand — the zero window, or a
// staged overwrite materialised locally — the window is cut from it.
// Over a fetched window each staged insert counts into Total, which
// makes it an upper bound (the key may have existed already; callers use
// it only as a split heuristic); with the whole object in hand Total is
// exact.
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

// readBase is the servers' answer to one item at the transaction's
// snapshot, without the overlay of staged operations. Under snapshot
// isolation that answer cannot change for the life of the transaction,
// so the transaction keeps a read set and answers a repeat locally: a
// Get followed by a Put or Delete of the same key asks for the same
// window of the same leaf twice, and pays for one read; so does a node
// read whole twice; and a statement that planned its reads (Prefetch)
// finds every one of them here. The set holds what the current statement
// read (see Tx) and is emptied when it ends. Returned values are shared
// between callers and must not be modified (kv.Overlay copies before it
// edits).
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

// readSet holds a statement's read entries: the first few inline (a
// point statement allocates nothing for them), the rest by a hash of
// the item. A hit is checked against the item itself, and an entry whose
// hash collides with an older one's replaces it: a collision costs a
// read again, never a wrong answer.
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

// Commit atomically applies the staged writes. Read-only transactions
// commit locally with no communication. Transactions touching one
// server use the one-round-trip fast path; otherwise two-phase commit
// runs across the participants. On conflict, Commit returns
// kv.ErrConflict, and when a staged compare op fails, the participant's
// *kv.CompareError; either way the transaction has no effect.
func (t *Tx) Commit(ctx context.Context) error {
	if t.done {
		return kv.ErrAborted
	}
	t.done = true
	if len(t.ops) == 0 {
		return nil // read-only: snapshot isolation needs nothing more
	}

	err := t.commitOps(ctx)
	if err == nil && t.after != nil {
		for _, h := range t.after.hooks {
			h.f(ctx)
		}
	}
	return err
}

// commitOps partitions the staged ops by participant group, then
// fast-commits (one participant) or runs two-phase commit (several).
func (t *Tx) commitOps(ctx context.Context) error {
	byServer := make(map[int][]*kv.Op)
	var servers []int
	for _, op := range t.ops {
		s := t.c.ServerFor(op.OID)
		if _, ok := byServer[s]; !ok {
			servers = append(servers, s)
		}
		byServer[s] = append(byServer[s], op)
	}

	if len(servers) == 1 {
		return t.fastCommit(ctx, servers[0], byServer[servers[0]])
	}
	return t.twoPhaseCommit(ctx, servers, byServer)
}

// fastCommit is not idempotent: if the request was sent and the
// connection died before the acknowledgment, the commit may have been
// applied (and replicated), so call surfaces kv.ErrUncertain. When the
// request provably never left (the primary died earlier), call retries
// on the backup, which re-executes the whole one-shot transaction.
func (t *Tx) fastCommit(ctx context.Context, server int, ops []*kv.Op) error {
	respB, err := t.c.call(ctx, server, kv.MethodFastCommit, func(epoch uint64) []byte {
		return (&kv.FastCommitReq{TxID: t.txid, Start: t.start, Ops: ops, Epoch: epoch}).Encode()
	}, retryUnsentUncertain)
	if err != nil {
		return err
	}
	resp, err := kv.DecodeFastCommitResp(respB)
	if err != nil {
		return err
	}
	t.c.hlc.Observe(resp.Clock)
	t.c.hlc.Observe(resp.CommitTS)
	t.noteCells(ops, resp.Cells)
	return nil
}

func (t *Tx) twoPhaseCommit(ctx context.Context, servers []int, byServer map[int][]*kv.Op) error {
	type vote struct {
		proposed clock.Timestamp
		cells    []uint64
		err      error
	}
	votes := make([]vote, len(servers))
	fanOut(len(servers), func(i int) {
		s := servers[i]
		// Prepare retries on a backup only when the request provably
		// never reached the primary (it was already dead) — or when
		// it was rejected with ErrWrongEpoch, which guarantees
		// nothing was staged. If the ack was merely lost, the
		// primary may hold the vote, and re-preparing elsewhere
		// would stage the transaction twice; the transaction aborts
		// instead.
		respB, err := t.c.call(ctx, s, kv.MethodPrepare, func(epoch uint64) []byte {
			return (&kv.PrepareReq{TxID: t.txid, Start: t.start, Ops: byServer[s], Epoch: epoch}).Encode()
		}, retryUnsent)
		if err != nil {
			votes[i].err = err
			return
		}
		resp, err := kv.DecodePrepareResp(respB)
		if err != nil {
			votes[i].err = err
			return
		}
		t.c.hlc.Observe(resp.Clock)
		votes[i].proposed, votes[i].cells = resp.Proposed, resp.Cells
	})

	commitTS := clock.Timestamp(0)
	var firstErr error
	for _, v := range votes {
		switch {
		case v.err != nil:
			if firstErr == nil {
				firstErr = v.err
			}
		case v.proposed > commitTS:
			commitTS = v.proposed
		}
	}
	if firstErr != nil {
		t.abortAll(ctx, servers)
		return firstErr
	}
	for i, s := range servers {
		t.noteCells(byServer[s], votes[i].cells)
	}

	// Decision point: all participants voted yes. The transaction is
	// now decided-committed, and the coordinator's job is to drive that
	// decision to every participant's replica group — on a detached,
	// timeout-bounded context: the caller's context expiring mid-drive
	// must not stop the fan-out halfway, or a decided-commit ends up
	// applied on some participants and orphan-aborted on the rest.
	if t.TestHookAfterVote != nil {
		t.TestHookAfterVote()
	}
	ctx, cancelDecide := context.WithTimeout(context.WithoutCancel(ctx), decideTimeout)
	defer cancelDecide()
	errs := make([]error, len(servers))
	fanOut(len(servers), func(i int) {
		s := servers[i]
		// The decision may be retried on any replica: prepares are
		// replicated before the yes vote, so a promoted backup holds
		// the prepared transaction, and decided outcomes are
		// remembered server-side, so a duplicate CommitReq (lost
		// acknowledgment, then retry) is acknowledged rather than
		// rejected. (A retry reaching an unpromoted backup while the
		// primary is alive but unreachable is answered with
		// ErrWrongEpoch, so split brain is prevented, not merely
		// detected: the decision lands only on the epoch's primary.)
		respB, err := t.c.call(ctx, s, kv.MethodCommit, func(epoch uint64) []byte {
			return (&kv.CommitReq{TxID: t.txid, CommitTS: commitTS, Epoch: epoch}).Encode()
		}, retryAlways)
		if err != nil {
			errs[i] = fmt.Errorf("commit on server %d: %w", s, err)
			return
		}
		if ack, err := kv.DecodeAck(respB); err == nil {
			t.c.observeAck(s, ack)
		}
	})
	t.c.hlc.Observe(commitTS)
	for _, err := range errs {
		if err != nil {
			// The transaction is decided-committed but a participant's
			// whole replica group was unreachable for the full drive
			// window. Surface the error: callers must not assume the write
			// is readable everywhere. The participant keeps the prepare
			// (within its epoch the orphan sweep never aborts it), so a
			// retried decision still lands once the group is reachable.
			return fmt.Errorf("kv: commit incomplete: %w", err)
		}
	}
	return nil
}

// fanOut runs call(0), …, call(n-1) at once and returns when all have:
// the first on the calling goroutine, which would otherwise only wait,
// the rest on goroutines of their own. Every round a client makes to
// several groups — reads, prepares, decisions, aborts — goes out this way.
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

// decideTimeout bounds the phase-two decision drive: long enough to
// ride out a failover to the backup, bounded so a caller is not
// wedged on a fully dark replica group.
const decideTimeout = 10 * time.Second

func (t *Tx) abortAll(ctx context.Context, servers []int) {
	if t.TestHookBeforeAbort != nil {
		t.TestHookBeforeAbort()
	}
	// Run the abort RPCs on a detached, timeout-bounded context: the
	// caller's context is often already cancelled or past its deadline
	// when prepares fail (that may be *why* they failed), and dying
	// with it would leave reachable participants holding their prepare
	// locks until the orphan sweep.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), abortTimeout)
	defer cancel()
	fanOut(len(servers), func(i int) {
		s := servers[i]
		respB, err := t.c.call(ctx, s, kv.MethodAbort, func(epoch uint64) []byte {
			return (&kv.AbortReq{TxID: t.txid, Epoch: epoch}).Encode()
		}, retryAlways)
		if err == nil {
			if ack, err := kv.DecodeAck(respB); err == nil {
				t.c.observeAck(s, ack)
			}
		}
	})
}

// Abort discards the transaction. Since writes are buffered
// client-side, nothing is on the servers yet; Abort is local.
func (t *Tx) Abort() {
	t.done = true
	t.ops = nil
	t.byOID = nil
}
