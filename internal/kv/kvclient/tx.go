package kvclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// Tx is a snapshot-isolation transaction. Reads see the state as of the
// start timestamp plus the transaction's own buffered writes; writes
// are staged locally and sent to the servers only at Commit. A Tx is
// not safe for concurrent use.
type Tx struct {
	c     *Client
	txid  uint64
	start clock.Timestamp
	done  bool

	// Staged operations in program order, plus a per-OID index used for
	// read-your-own-writes.
	ops   []*kv.Op
	byOID map[kv.OID][]*kv.Op

	// memo remembers the last few windowed base reads (see readPartBase);
	// memoNext is the slot the next one overwrites.
	memo     [partMemoSize]partMemo
	memoNext int

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
	return &Tx{
		c:     c,
		txid:  c.nextTx.Add(1),
		start: snap,
		byOID: make(map[kv.OID][]*kv.Op),
	}
}

// Snapshot returns the transaction's start timestamp.
func (t *Tx) Snapshot() clock.Timestamp { return t.start }

// NumWrites reports how many operations are staged.
func (t *Tx) NumWrites() int { return len(t.ops) }

// stage appends a write operation.
func (t *Tx) stage(op *kv.Op) {
	t.ops = append(t.ops, op)
	t.byOID[op.OID] = append(t.byOID[op.OID], op)
}

// Put stages a full overwrite of oid with v.
func (t *Tx) Put(oid kv.OID, v *kv.Value) {
	t.stage(&kv.Op{Kind: kv.OpPut, OID: oid, Value: v})
}

// Delete stages removal of oid.
func (t *Tx) Delete(oid kv.OID) {
	t.stage(&kv.Op{Kind: kv.OpDelete, OID: oid})
}

// ListAdd stages insertion of one cell into the supervalue at oid. The
// operation is "blind": it requires no prior read, so a DBT leaf insert
// costs zero read round trips.
func (t *Tx) ListAdd(oid kv.OID, key, value []byte) {
	t.stage(&kv.Op{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: key, Value: value}})
}

// ListDelRange stages deletion of cells with keys in [from, to).
func (t *Tx) ListDelRange(oid kv.OID, from, to []byte) {
	t.stage(&kv.Op{Kind: kv.OpListDelRange, OID: oid, From: from, To: to})
}

// AttrSet stages setting attribute attr of the supervalue at oid.
func (t *Tx) AttrSet(oid kv.OID, attr uint8, num uint64) {
	t.stage(&kv.Op{Kind: kv.OpAttrSet, OID: oid, Attr: attr, Num: num})
}

// SetBounds stages replacement of the supervalue's fence keys.
func (t *Tx) SetBounds(oid kv.OID, low, high []byte) {
	t.stage(&kv.Op{Kind: kv.OpSetBounds, OID: oid, Low: low, High: high})
}

// Read returns oid's value as this transaction sees it: the snapshot
// version overlaid with the transaction's own staged operations.
func (t *Tx) Read(ctx context.Context, oid kv.OID) (*kv.Value, error) {
	if t.done {
		return nil, kv.ErrAborted
	}
	staged := t.byOID[oid]
	// If the last full overwrite (Put/Delete) precedes some suffix of
	// delta ops, the base below that point is irrelevant.
	baseNeeded := true
	from := 0
	for i := len(staged) - 1; i >= 0; i-- {
		if staged[i].Kind == kv.OpPut || staged[i].Kind == kv.OpDelete {
			baseNeeded = false
			from = i
			break
		}
	}
	var base *kv.Value
	if baseNeeded {
		v, err := t.c.readAt(ctx, oid, t.start)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return nil, err
		}
		base = v
	}
	for _, op := range staged[from:] {
		next, err := op.Apply(base)
		if err != nil {
			return nil, err
		}
		base = next
	}
	if base == nil {
		return nil, kv.ErrNotFound
	}
	return base, nil
}

// partMemoSize is how many windowed base reads a Tx remembers. A
// statement re-reads only what it has just read — the leaf a lookup
// found and the write then descends to, once per tree it touches — so a
// handful of entries covers it.
const partMemoSize = 4

// partMemo is one remembered ReadPart answer from the servers: the
// request (oid, from, to, max) and the base value and cell count it
// returned. hasTo tells a nil to (unbounded) from an empty one.
type partMemo struct {
	oid      kv.OID
	from, to []byte
	hasTo    bool
	max      uint32
	val      *kv.Value
	total    int
}

// readPartBase is the server's answer to a windowed read at the
// transaction's snapshot, without the overlay of staged operations.
// Under snapshot isolation that answer cannot change for the life of
// the transaction, so a repeat of a recent request is answered locally:
// a Get followed by a Put or Delete of the same key asks for the same
// window of the same leaf twice, and pays for one read. Returned values
// are shared between callers and must not be modified (kv.Op.Apply
// overlays staged operations copy-on-write, so an overlaid result
// shares its untouched cells with the remembered base).
func (t *Tx) readPartBase(ctx context.Context, oid kv.OID, from, to []byte, max uint32) (*kv.Value, int, error) {
	for i := range t.memo {
		m := &t.memo[i]
		if m.val != nil && m.oid == oid && m.max == max && m.hasTo == (to != nil) &&
			bytes.Equal(m.from, from) && bytes.Equal(m.to, to) {
			return m.val, m.total, nil
		}
	}
	val, total, err := t.c.readPartAt(ctx, oid, t.start, from, to, max)
	if err != nil {
		return nil, 0, err
	}
	// The keys are copied (into one allocation): callers may reuse their
	// buffers, and a remembered request must not change under them.
	buf := append(append(make([]byte, 0, len(from)+len(to)), from...), to...)
	t.memo[t.memoNext] = partMemo{
		oid: oid, from: buf[:len(from):len(from)], to: buf[len(from):], hasTo: to != nil,
		max: max, val: val, total: total,
	}
	t.memoNext = (t.memoNext + 1) % partMemoSize
	return val, total, nil
}

// ReadPart returns a windowed view of a supervalue as this transaction
// sees it: cells in [floor(from), to) capped at max, plus the node's
// (approximate, see below) total cell count. Compared with Read it
// ships only the needed cells over the network — the mechanism that
// keeps DBT point operations off the bandwidth cliff for large nodes.
//
// The transaction's own staged delta operations are overlaid on the
// window. The returned total is exact for clean objects; staged inserts
// make it an upper-bound estimate (callers use it only as a split
// heuristic).
func (t *Tx) ReadPart(ctx context.Context, oid kv.OID, from, to []byte, max uint32) (*kv.Value, int, error) {
	if t.done {
		return nil, 0, kv.ErrAborted
	}
	staged := t.byOID[oid]
	// A staged full overwrite makes the server state irrelevant from
	// that op onward: materialize locally via Read and slice.
	for i := len(staged) - 1; i >= 0; i-- {
		if staged[i].Kind == kv.OpPut || staged[i].Kind == kv.OpDelete {
			full, err := t.Read(ctx, oid)
			if err != nil {
				return nil, 0, err
			}
			if full.Kind != kv.KindSuper {
				return full, 0, nil
			}
			part := &kv.Value{Kind: kv.KindSuper, Attrs: full.Attrs, LowKey: full.LowKey, HighKey: full.HighKey}
			part.Cells = full.WindowCells(from, to, max)
			return part, full.NumCells(), nil
		}
	}

	base, total, err := t.readPartBase(ctx, oid, from, to, max)
	if err != nil {
		if !errors.Is(err, kv.ErrNotFound) {
			return nil, 0, err
		}
		if len(staged) == 0 {
			return nil, 0, kv.ErrNotFound
		}
		base, total = nil, 0
	}
	if len(staged) == 0 {
		return base, total, nil
	}
	// Overlay staged deltas. Extra cells outside the window are
	// harmless for the callers (they select by key anyway).
	v := base
	for _, op := range staged {
		next, err := op.Apply(v)
		if err != nil {
			return nil, 0, err
		}
		v = next
		if op.Kind == kv.OpListAdd {
			total++ // upper bound: the key may have existed already
		}
	}
	if v == nil {
		return nil, 0, kv.ErrNotFound
	}
	return v, total, nil
}

// ReadBatch performs len(items) reads at the transaction's snapshot in
// as few RPCs as the data's placement allows: items free of staged
// writes are grouped by server slot and each slot's sub-batch goes out
// as one MethodReadBatch call, the sub-batches in parallel over the
// existing read connections (follower pinning and primary fallback
// included). Items whose OIDs carry staged
// operations are served through the ordinary overlay paths on the
// calling goroutine, so read-your-own-writes holds item by item.
//
// Results are positional: results[i] answers items[i], with Found=false
// for absent objects (never an error, unlike Read). Version is zero for
// items served through the staged-write overlay; Total is meaningful
// only for windowed (Part) items.
func (t *Tx) ReadBatch(ctx context.Context, items []kv.ReadBatchItem) ([]kv.ReadBatchResult, error) {
	if t.done {
		return nil, kv.ErrAborted
	}
	results := make([]kv.ReadBatchResult, len(items))
	var stagedIdx, cleanIdx []int
	for i := range items {
		if len(t.byOID[items[i].OID]) > 0 {
			stagedIdx = append(stagedIdx, i)
		} else {
			cleanIdx = append(cleanIdx, i)
		}
	}
	type cleanResult struct {
		res []kv.ReadBatchResult
		err error
	}
	var ch chan cleanResult
	if len(cleanIdx) > 0 {
		sub := make([]kv.ReadBatchItem, len(cleanIdx))
		for j, i := range cleanIdx {
			sub[j] = items[i]
		}
		ch = make(chan cleanResult, 1)
		// The goroutine touches only the concurrency-safe Client (and
		// the immutable snapshot), never the Tx; readBatchSlots fans the
		// sub-batch out per server slot from there.
		go func() {
			res, err := t.c.readBatchSlots(ctx, t.start, sub)
			ch <- cleanResult{res: res, err: err}
		}()
	}
	// Staged items overlay on the calling goroutine while the sub-batches
	// are in flight.
	var stagedErr error
	for _, i := range stagedIdx {
		item := &items[i]
		var (
			val   *kv.Value
			total int
			err   error
		)
		if item.Part {
			val, total, err = t.ReadPart(ctx, item.OID, item.From, item.To, item.Max)
		} else {
			val, err = t.Read(ctx, item.OID)
		}
		switch {
		case err == nil:
			results[i] = kv.ReadBatchResult{Found: true, Value: val, Total: uint32(total)}
		case errors.Is(err, kv.ErrNotFound):
		default:
			if stagedErr == nil {
				stagedErr = err
			}
		}
	}
	var firstErr error
	if ch != nil {
		cr := <-ch
		if cr.err != nil {
			firstErr = cr.err
		} else {
			for j, i := range cleanIdx {
				results[i] = cr.res[j]
			}
		}
	}
	if firstErr == nil {
		firstErr = stagedErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Commit atomically applies the staged writes. Read-only transactions
// commit locally with no communication. Transactions touching one
// server use the one-round-trip fast path; otherwise two-phase commit
// runs across the participants. On conflict, Commit returns
// kv.ErrConflict and the transaction has no effect.
func (t *Tx) Commit(ctx context.Context) error {
	if t.done {
		return kv.ErrAborted
	}
	t.done = true
	if len(t.ops) == 0 {
		return nil // read-only: snapshot isolation needs nothing more
	}

	// A wrong-slot redirect restarts the whole commit: the rejection
	// guarantees the rejecting participant executed nothing, a failed
	// prepare round aborts the rest, and the writes are still buffered
	// here — so the retry re-partitions under the directory the redirect
	// taught and runs as a fresh transaction (new txid: an aborted
	// round may have left the old id in participants' decided tables).
	for tries := 0; ; tries++ {
		err := t.commitOnce(ctx)
		if errors.Is(err, kv.ErrWrongSlot) &&
			t.c.retryWrongSlot(ctx, t.c.ServerFor(t.ops[0].OID), err, tries) {
			t.txid = t.c.nextTx.Add(1)
			continue
		}
		return err
	}
}

// commitOnce runs one commit attempt: partition staged ops by
// participant group, then fast-commit (one participant) or two-phase
// commit (several).
func (t *Tx) commitOnce(ctx context.Context) error {
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
		return translateRPCErr(err)
	}
	resp, err := kv.DecodeFastCommitResp(respB)
	if err != nil {
		return err
	}
	t.c.hlc.Observe(resp.Clock)
	t.c.group(server).noteFrontier(resp.Frontier)
	if !resp.OK {
		return kv.ErrConflict
	}
	t.c.hlc.Observe(resp.CommitTS)
	return nil
}

func (t *Tx) twoPhaseCommit(ctx context.Context, servers []int, byServer map[int][]*kv.Op) error {
	type voteResult struct {
		server   int
		ok       bool
		proposed clock.Timestamp
		err      error
	}
	votes := make(chan voteResult, len(servers))
	for _, s := range servers {
		go func(s int) {
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
				votes <- voteResult{server: s, err: translateRPCErr(err)}
				return
			}
			resp, err := kv.DecodePrepareResp(respB)
			if err != nil {
				votes <- voteResult{server: s, err: err}
				return
			}
			t.c.hlc.Observe(resp.Clock)
			votes <- voteResult{server: s, ok: resp.OK, proposed: resp.Proposed}
		}(s)
	}

	commitTS := clock.Timestamp(0)
	allOK := true
	var firstErr error
	for range servers {
		v := <-votes
		switch {
		case v.err != nil:
			allOK = false
			if firstErr == nil {
				firstErr = v.err
			}
		case !v.ok:
			allOK = false
			if firstErr == nil {
				firstErr = kv.ErrConflict
			}
		default:
			if v.proposed > commitTS {
				commitTS = v.proposed
			}
		}
	}

	if !allOK {
		t.abortAll(ctx, servers)
		if firstErr == nil {
			firstErr = kv.ErrConflict
		}
		return firstErr
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
	errs := make(chan error, len(servers))
	for _, s := range servers {
		go func(s int) {
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
				errs <- fmt.Errorf("commit on server %d: %w", s, err)
				return
			}
			if ack, err := kv.DecodeAck(respB); err == nil {
				t.c.observeAck(s, ack)
			}
			errs <- nil
		}(s)
	}
	var commitErr error
	for range servers {
		if err := <-errs; err != nil && commitErr == nil {
			commitErr = err
		}
	}
	t.c.hlc.Observe(commitTS)
	if commitErr != nil {
		// The transaction is decided-committed but a participant's
		// whole replica group was unreachable for the full drive
		// window. Surface the error: callers must not assume the write
		// is readable everywhere. The participant keeps the prepare
		// (within its epoch the orphan sweep never aborts it), so a
		// retried decision still lands once the group is reachable.
		return fmt.Errorf("kv: commit incomplete: %w", commitErr)
	}
	return nil
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
	done := make(chan struct{}, len(servers))
	for _, s := range servers {
		go func(s int) {
			defer func() { done <- struct{}{} }()
			respB, err := t.c.call(ctx, s, kv.MethodAbort, func(epoch uint64) []byte {
				return (&kv.AbortReq{TxID: t.txid, Epoch: epoch}).Encode()
			}, retryAlways)
			if err == nil {
				if ack, err := kv.DecodeAck(respB); err == nil {
					t.c.observeAck(s, ack)
				}
			}
		}(s)
	}
	for range servers {
		<-done
	}
}

// Abort discards the transaction. Since writes are buffered
// client-side, nothing is on the servers yet; Abort is local.
func (t *Tx) Abort() {
	t.done = true
	t.ops = nil
	t.byOID = nil
}
