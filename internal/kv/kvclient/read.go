package kvclient

import (
	"context"
	"errors"
	"fmt"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/rpc"
)

// FollowerSnapshot returns the newest snapshot timestamp every
// replicated server slot can currently serve as a follower read: the
// minimum durability frontier learned across multi-replica groups
// (single-replica slots always serve at any snapshot and don't cap
// it). Once a group's backups have reported their own frontier on
// read responses, that bound is used — reads at it never park in a
// backup's patience wait. Zero until any frontier has been learned —
// callers fall back to a current-time snapshot then.
func (c *Client) FollowerSnapshot() clock.Timestamp {
	snap, any := clock.Timestamp(0), false
	for _, g := range c.groupList() {
		if g.size() < 2 {
			continue
		}
		f := g.followerSnapNow()
		if !any || f < snap {
			snap, any = f, true
		}
	}
	return snap
}

// BeginFollower starts a transaction at the FollowerSnapshot, so with
// follower reads enabled every read it performs can be served by a
// backup. The snapshot trails the newest commits by the watermark lag
// (bounded staleness: everything visible is quorum-durable, but this
// transaction may not see this client's own most recent writes). Use
// it for read-only work that values throughput over freshness; it
// falls back to an ordinary Begin until a frontier is known.
func (c *Client) BeginFollower() *Tx {
	if snap := c.FollowerSnapshot(); snap > 0 {
		return c.BeginAt(snap)
	}
	return c.Begin()
}

// readCall routes one snapshot read. With follower reads on and the
// snapshot at or below the group's learned durability frontier, it
// first tries this client's pinned backup — the backup's own
// CheckClientRead re-verifies the bound against ITS frontier, so a
// stale client view costs a redirect, never a stale answer. Any
// follower failure (unreachable, wrong epoch, behind) falls back to
// the ordinary primary path; epoch redirects learned on the way are
// adopted first, so the fallback already walks the fresh membership.
// viaFollower reports which side answered, so the caller can file the
// response's frontier under the right bound.
func (c *Client) readCall(ctx context.Context, server int, snap clock.Timestamp, method string, enc func(epoch uint64) []byte) (respB []byte, viaFollower bool, err error) {
	g := c.group(server)
	if c.followerReads.Load() && snap <= g.routeFrontierNow() {
		if conn, addr, ok := g.followerConn(); ok {
			resp, err := conn.Call(ctx, method, enc(g.epochNow()))
			if err == nil {
				return resp, true, nil
			}
			var app *rpc.AppError
			if errors.As(err, &app) {
				if we, ok := kv.ParseWrongEpoch(app.Msg); ok {
					g.noteEpoch(we.Epoch, we.Members)
				}
			} else if ctx.Err() == nil {
				g.invalidateFollower(addr, conn)
			}
		}
	}
	respB, err = c.call(ctx, server, method, enc, retryAlways)
	return respB, false, err
}

// readItems is the one read path: it answers items at snap into out,
// positionally (an absent object leaves Found=false, never an error),
// in as few RPCs as the data's placement allows — one per owning group,
// in parallel when there are several. A wrong-slot redirect from any
// group means the partition itself was stale, so the whole round is
// partitioned again under the directory the redirect taught and
// retried.
func (c *Client) readItems(ctx context.Context, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	if len(items) == 0 {
		return nil
	}
	for tries := 0; ; tries++ {
		server, err := c.readRound(ctx, snap, items, out)
		if err == nil || !c.retryWrongSlot(ctx, server, err, tries) {
			return err
		}
	}
}

// ReadRounds counts the read rounds this client has made: one per
// readItems call, plus one per wrong-slot retry. A round is one message
// delay however many items and groups it spans, so rounds — not the
// servers' count of items read — are what a caller waits for.
func (c *Client) ReadRounds() uint64 { return c.readRounds.Load() }

// readRound runs one partition-and-fetch round of readItems; server is
// the group whose call produced err (for the redirect machinery). Items
// that share one group — a single item always does — go out on the
// calling goroutine with nothing built around them.
func (c *Client) readRound(ctx context.Context, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) (server int, err error) {
	c.readRounds.Add(1)
	server = c.ServerFor(items[0].OID)
	spread := false
	for i := 1; i < len(items) && !spread; i++ {
		spread = c.ServerFor(items[i].OID) != server
	}
	if !spread {
		return server, c.readGroup(ctx, server, snap, items, out)
	}
	bySlot := make(map[int][]int)
	for i := range items {
		s := c.ServerFor(items[i].OID)
		bySlot[s] = append(bySlot[s], i)
	}
	type slotResult struct {
		server int
		idx    []int
		res    []kv.ReadBatchResult
		err    error
	}
	ch := make(chan slotResult, len(bySlot))
	for s, idx := range bySlot {
		sub := make([]kv.ReadBatchItem, len(idx))
		for j, i := range idx {
			sub[j] = items[i]
		}
		go func(s int, idx []int, sub []kv.ReadBatchItem) {
			res := make([]kv.ReadBatchResult, len(sub))
			err := c.readGroup(ctx, s, snap, sub, res)
			ch <- slotResult{server: s, idx: idx, res: res, err: err}
		}(s, idx, sub)
	}
	for range bySlot {
		sr := <-ch
		if sr.err != nil {
			// Prefer reporting a wrong-slot failure: it is the one the
			// caller can fix by partitioning again.
			var ws *kv.WrongSlotError
			if err == nil || (errors.As(sr.err, &ws) && !errors.Is(err, kv.ErrWrongSlot)) {
				server, err = sr.server, sr.err
			}
			continue
		}
		for j, i := range sr.idx {
			out[i] = sr.res[j]
		}
	}
	return server, err
}

// readGroup fetches items — all owned by group server — at snap with
// one RPC, routed like every snapshot read (follower pin, primary
// fallback), and files the clock and frontier the response carries. The
// encoding follows the input's size: one item travels as a
// MethodReadPart call, several as a MethodReadBatch.
func (c *Client) readGroup(ctx context.Context, server int, snap clock.Timestamp, items []kv.ReadBatchItem, out []kv.ReadBatchResult) error {
	one := len(items) == 1
	method := kv.MethodReadBatch
	if one {
		method = kv.MethodReadPart
	}
	respB, viaFollower, err := c.readCall(ctx, server, snap, method, func(epoch uint64) []byte {
		if one {
			return (&kv.ReadPartReq{Snap: snap, Epoch: epoch, Item: items[0]}).Encode()
		}
		return (&kv.ReadBatchReq{Snap: snap, Epoch: epoch, Items: items}).Encode()
	})
	if err != nil {
		return translateRPCErr(err)
	}
	var clk, frontier clock.Timestamp
	if one {
		resp, err := kv.DecodeReadPartResp(respB)
		if err != nil {
			return err
		}
		out[0] = kv.ReadBatchResult{Found: resp.Found, Version: resp.Version, Value: resp.Value, Total: resp.Total}
		clk, frontier = resp.Clock, resp.Frontier
	} else {
		resp, err := kv.DecodeReadBatchResp(respB)
		if err != nil {
			return err
		}
		if len(resp.Results) != len(items) {
			return fmt.Errorf("kvclient: read batch answered %d of %d items", len(resp.Results), len(items))
		}
		copy(out, resp.Results)
		clk, frontier = resp.Clock, resp.Frontier
	}
	c.hlc.Observe(clk)
	if frontier != 0 {
		// A backup's answer vouches for the backup-reported bound, a
		// primary's for the fresh one.
		if g := c.group(server); viaFollower {
			g.noteReadFrontier(frontier)
		} else {
			g.noteFrontier(frontier)
		}
	}
	return nil
}

// ReadView is a concurrency-safe, read-only view of the store at a
// fixed snapshot timestamp. Unlike a Tx it stages no writes and
// overlays nothing, so it may be shared across goroutines; the dbt
// scan readahead uses one to prefetch leaves on a background goroutine
// while the owning transaction's goroutine keeps consuming. Reads
// route exactly like transaction reads (follower pinning, primary
// fallback, frontier bookkeeping), and — reading a fixed MVCC snapshot
// — return the same bytes a transaction at the same snapshot with no
// staged writes would see, no matter which goroutine or replica serves
// them.
type ReadView struct {
	c    *Client
	snap clock.Timestamp
}

// View returns a read view of the store at snap.
func (c *Client) View(snap clock.Timestamp) *ReadView {
	return &ReadView{c: c, snap: snap}
}

// View returns a concurrency-safe read view at this transaction's
// snapshot. The view does NOT see the transaction's staged writes —
// callers that may have writes pending must overlay via the Tx.
func (t *Tx) View() *ReadView { return t.c.View(t.start) }

// Snapshot returns the view's snapshot timestamp.
func (v *ReadView) Snapshot() clock.Timestamp { return v.snap }

// ReadPart fetches a window of the supervalue at oid: cells in
// [floor(from), to) capped at max, plus the node's total cell count.
// The zero window (nil, nil, 0) is the whole object.
func (v *ReadView) ReadPart(ctx context.Context, oid kv.OID, from, to []byte, max uint32) (*kv.Value, int, error) {
	var out [1]kv.ReadBatchResult
	item := [1]kv.ReadBatchItem{{OID: oid, Part: true, From: from, To: to, Max: max}}
	if err := v.c.readItems(ctx, v.snap, item[:], out[:]); err != nil {
		return nil, 0, err
	}
	if !out[0].Found {
		return nil, 0, kv.ErrNotFound
	}
	return out[0].Value, int(out[0].Total), nil
}

// ReadBatch performs len(items) snapshot reads in as few RPCs as the
// data's placement allows (see readItems). The same contract as
// Tx.ReadBatch minus any overlay: results are positional, absent
// objects come back Found=false. The dbt scan readahead uses this to
// fetch runs of predicted leaves with one round trip.
func (v *ReadView) ReadBatch(ctx context.Context, items []kv.ReadBatchItem) ([]kv.ReadBatchResult, error) {
	out := make([]kv.ReadBatchResult, len(items))
	if err := v.c.readItems(ctx, v.snap, items, out); err != nil {
		return nil, err
	}
	return out, nil
}
