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
// calling goroutine with nothing built around them; of a round over k
// groups the caller makes the first group's call itself and k-1
// goroutines the others'.
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
	// One part per group, in order of first appearance (few groups: a
	// linear search), each with its items and where their answers go.
	type part struct {
		server int
		idx    []int
		items  []kv.ReadBatchItem
		res    []kv.ReadBatchResult
		err    error
	}
	var parts []part
	for i := range items {
		s := c.ServerFor(items[i].OID)
		at := 0
		for at < len(parts) && parts[at].server != s {
			at++
		}
		if at == len(parts) {
			parts = append(parts, part{server: s})
		}
		parts[at].idx = append(parts[at].idx, i)
		parts[at].items = append(parts[at].items, items[i])
	}
	fanOut(len(parts), func(i int) {
		p := &parts[i]
		p.res = make([]kv.ReadBatchResult, len(p.items))
		p.err = c.readGroup(ctx, p.server, snap, p.items, p.res)
	})
	for i := range parts {
		p := &parts[i]
		if p.err != nil {
			// Prefer reporting a wrong-slot failure: it is the one the
			// caller can fix by partitioning again.
			var ws *kv.WrongSlotError
			if err == nil || (errors.As(p.err, &ws) && !errors.Is(err, kv.ErrWrongSlot)) {
				server, err = p.server, p.err
			}
			continue
		}
		for j, i := range p.idx {
			out[i] = p.res[j]
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
